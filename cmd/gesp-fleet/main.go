// Command gesp-fleet runs the solve fleet's router (internal/fleetrpc)
// over one of two kinds of shard.
//
// Default (in-process): -shards serve.Service shards in this process.
//
// -join (cross-process): no shards of its own — a coordinator over
// already-running gesp-serve processes:
//
//	gesp-serve -addr :9001 &
//	gesp-serve -addr :9002 &
//	gesp-fleet -join 127.0.0.1:9001,127.0.0.1:9002
//
// Either way it is the same router — consistent-hash placement,
// replication, health-checked membership, retry/backoff, budget-gated
// hedging, eviction heal, graceful drain, degraded fallback — behind
// the same HTTP JSON API (fleetrpc.Handler); tenants identify
// themselves with an X-Tenant header.
//
//	POST /v1/matrix  {"n":N,"rows":[...],"cols":[...],"vals":[...]}
//	                 -> {"handle":"p….v….n…","n":N,"nnz":…,"shard":…}
//	POST /v1/solve   {"handle":"…","b":[...]}
//	                 -> {"x":[...]}
//	GET  /v1/stats   -> fleetrpc.Stats JSON
//	POST /v1/drain   {"shard":K}
//	                 -> {"drained":K}  (in-process caches hand off; no refactorization)
//
// With -ha-id/-ha-peers the process is one of N replicated coordinators
// (internal/fleetha); only the elected leader routes, followers redirect.
//
// Load-generator mode (no server; closed-loop in-process benchmark):
//
//	gesp-fleet -load -shards 4 -workers 16 -duration 2s -drain-mid
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"gesp/internal/experiments"
	"gesp/internal/fleet"
	"gesp/internal/fleetha"
	"gesp/internal/fleetrpc"
	"gesp/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gesp-fleet: ")
	var (
		addr        = flag.String("addr", ":8743", "HTTP listen address")
		shards      = flag.Int("shards", 4, "number of in-process solve shards")
		vnodes      = flag.Int("vnodes", fleet.DefaultVNodes, "consistent-hash virtual nodes per shard")
		replication = flag.Int("replication", 2, "shards holding each pattern, owner included")
		hedgeAfter  = flag.Duration("hedge-after", 100*time.Millisecond, "hedge to the replica when the primary hasn't answered in this long (0 disables)")
		hedgeBudget = flag.Float64("hedge-budget", 0, "cap hedges at this fraction of routed traffic (0 = unlimited)")
		hedgeBurst  = flag.Float64("hedge-burst", 8, "hedge token-bucket capacity when -hedge-budget is set")
		tenantRate  = flag.Float64("tenant-rate", 0, "per-tenant admitted requests per second (0 = no admission control)")
		tenantBurst = flag.Float64("tenant-burst", 0, "per-tenant token-bucket burst")

		maxBatch = flag.Int("max-batch", 16, "per-shard max right-hand sides per batched sweep")
		maxDelay = flag.Duration("max-delay", 200*time.Microsecond, "per-shard max time a solve waits for its batch to fill")
		queueCap = flag.Int("queue-cap", 256, "per-shard per-factor solve queue bound")
		maxFac   = flag.Int("max-factors", 1024, "per-shard factor cache entry cap")
		noRefine = flag.Bool("no-refine", false, "skip iterative refinement on served solves")

		join       = flag.String("join", "", "cross-process mode: comma-separated gesp-serve shard addresses to coordinate over")
		probeEvery = flag.Duration("probe-interval", 50*time.Millisecond, "health-check period")
		reqTimeout = flag.Duration("request-timeout", 2*time.Second, "per-attempt solve deadline")
		degraded   = flag.Bool("degraded-fallback", true, "answer via a live shard's iterative path when every placement is down")

		haID        = flag.Int("ha-id", -1, "join+HA: this coordinator's id (index into -ha-peers; -1 disables HA)")
		haPeers     = flag.String("ha-peers", "", "join+HA: comma-separated coordinator addresses, one per replica, ours at index -ha-id")
		haLease     = flag.Duration("ha-lease", time.Second, "join+HA: leader lease; followers elect after this long without a heartbeat")
		haHeartbeat = flag.Duration("ha-heartbeat", 0, "join+HA: leader heartbeat period (0 = lease/4)")
		haSLO       = flag.Duration("ha-slo", 0, "join+HA: p999 latency SLO driving the replica controller (0 disables the controller)")

		loadMode = flag.Bool("load", false, "run the closed-loop load generator instead of serving HTTP")
		workers  = flag.Int("workers", 8, "load: concurrent closed-loop workers")
		duration = flag.Duration("duration", 2*time.Second, "load: measurement duration")
		patterns = flag.Int("patterns", 6, "load: distinct sparsity patterns")
		variants = flag.Int("variants", 4, "load: value variants per pattern")
		scale    = flag.Float64("scale", 0.3, "load: testbed matrix scale")
		zipfS    = flag.Float64("zipf", 1.2, "load: Zipf skew of the pattern popularity (>1)")
		diurnal  = flag.Bool("diurnal", true, "load: modulate worker count through burst phases")
		drainMid = flag.Bool("drain-mid", false, "load: drain the hottest pattern's home shard mid-run")
	)
	flag.Parse()

	rcfg := fleetrpc.DefaultConfig(nil)
	rcfg.Replication = *replication
	rcfg.VNodes = *vnodes
	rcfg.ProbeInterval = *probeEvery
	rcfg.HedgeAfter = *hedgeAfter
	rcfg.HedgeBudget = *hedgeBudget
	rcfg.HedgeBurst = *hedgeBurst
	rcfg.RequestTimeout = *reqTimeout
	rcfg.DegradedFallback = *degraded
	quotas := fleet.NewQuotas(*tenantRate, *tenantBurst)

	if *join != "" && *haID >= 0 {
		// HA mode: this process is one of N replicated coordinators
		// running leader election; only the lease holder owns a fleet.
		shards, peers := strings.Split(*join, ","), strings.Split(*haPeers, ",")
		ncfg := fleetha.Config{
			ID:        *haID,
			Peers:     peers,
			Shards:    shards,
			Lease:     *haLease,
			Heartbeat: *haHeartbeat,
			Fleet:     rcfg,
			Logf:      log.Printf,
		}
		if *haSLO > 0 {
			ncfg.Controller = &fleetha.ControllerConfig{SLO: *haSLO}
		}
		node, err := fleetha.NewNode(ncfg)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("HA coordinator %d/%d on %s over %d shards (lease %v, SLO %v)",
			*haID, len(peers), *addr, len(shards), *haLease, *haSLO)
		log.Fatal(http.ListenAndServe(*addr, node.Mux(quotas)))
	}

	scfg := serve.DefaultConfig()
	scfg.MaxBatch = *maxBatch
	scfg.MaxDelay = *maxDelay
	scfg.QueueCap = *queueCap
	scfg.MaxFactors = *maxFac
	if *noRefine {
		scfg.Options.Refine = false
	}

	if *loadMode {
		res, err := experiments.RunFleetLoad(experiments.FleetLoadConfig{
			Shards:   *shards,
			Service:  scfg,
			Router:   rcfg,
			Workers:  *workers,
			Patterns: *patterns,
			Variants: *variants,
			Duration: *duration,
			Scale:    *scale,
			ZipfS:    *zipfS,
			Diurnal:  *diurnal,
			DrainMid: *drainMid,
		})
		if err != nil {
			log.Fatal(err)
		}
		printLoad(res, *duration)
		return
	}

	if *join != "" {
		rcfg.Shards = fleetrpc.Dial(strings.Split(*join, ","))
	} else {
		svcs := make([]*serve.Service, *shards)
		for i := range svcs {
			svcs[i] = serve.New(scfg)
		}
		rcfg.Shards = fleetrpc.LocalShards(svcs...)
	}
	f, err := fleetrpc.New(rcfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing over %d shards (%s) on %s (replication %d, hedge after %v, budget %.2f)",
		len(rcfg.Shards), strings.Join(f.Addrs(), ","), *addr, rcfg.Replication, rcfg.HedgeAfter, rcfg.HedgeBudget)
	log.Fatal(http.ListenAndServe(*addr, fleetrpc.Handler(f, quotas)))
}

// printLoad renders the load-generator report; stdout write failures
// have no recovery beyond the OS reporting them on exit.
//
//gesp:errok
func printLoad(res *experiments.FleetLoadResult, elapsed time.Duration) {
	fmt.Printf("fleet load: %d shards, %d workers, %d systems, %v\n",
		res.ShardCount, res.Workers, res.Systems, elapsed)
	fmt.Printf("  solves %d (%.0f/s)  shed %d  failed %d\n",
		res.Solves, res.Throughput, res.Shed, res.Failed)
	fmt.Printf("  p50 %v  p99 %v  p999 %v  hedge %.1f%%  heal %.1f%%\n",
		res.P50, res.P99, res.P999, 100*res.Stats.HedgeRate(), 100*res.Stats.HealRate())
	fmt.Printf("  factor runs warm/final %d/%d\n", res.FactorRunsWarm, res.FactorRunsFinal)
	if res.DrainErr != "" {
		fmt.Printf("  DRAIN ERROR: %s\n", res.DrainErr)
	}
	fmt.Print(res.Stats.String())
}
