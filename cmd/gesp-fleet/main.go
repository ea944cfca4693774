// Command gesp-fleet is a coordinator: it runs the solve fleet's router
// (internal/fleetrpc) over already-running gesp-serve processes, named
// by the required -join flag, and holds no shards of its own:
//
//	gesp-serve -addr :9001 &
//	gesp-serve -addr :9002 &
//	gesp-fleet -join 127.0.0.1:9001,127.0.0.1:9002
//
// The router — consistent-hash placement, replication, health-checked
// membership, retry/backoff, budget-gated hedging, eviction heal,
// graceful drain, degraded fallback — sits behind the gesp-serve HTTP
// JSON API (fleetrpc.Handler), which admits every request; a shard
// whose solve queue is full sheds with 503 and a retry-after hint, and
// the router retries, fails over or falls back.
//
//	POST /v1/matrix  {"n":N,"rows":[...],"cols":[...],"vals":[...]}
//	                 -> {"handle":"p….v….n…","n":N,"nnz":…,"shard":…}
//	POST /v1/solve   {"handle":"…","b":[...]}
//	                 -> {"x":[...]}
//	GET  /v1/stats   -> fleetrpc.Stats JSON
//	POST /v1/drain   {"shard":K}
//	                 -> {"drained":K}  (the shard's entries re-factor on the
//	                    survivors from the registry)
//
// With -ha-id/-ha-peers the process is one of N replicated coordinators
// (internal/fleetha); only the elected leader routes, followers redirect.
package main

import (
	"flag"
	"log"
	"net/http"
	"strings"
	"time"

	"gesp/internal/fleet"
	"gesp/internal/fleetha"
	"gesp/internal/fleetrpc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gesp-fleet: ")
	var (
		addr        = flag.String("addr", ":8743", "HTTP listen address")
		vnodes      = flag.Int("vnodes", fleet.DefaultVNodes, "consistent-hash virtual nodes per shard")
		replication = flag.Int("replication", 2, "shards holding each pattern, owner included")
		hedgeAfter  = flag.Duration("hedge-after", 100*time.Millisecond, "hedge to the replica when the primary hasn't answered in this long (0 disables)")
		hedgeBudget = flag.Float64("hedge-budget", 0, "cap hedges at this fraction of routed traffic (0 = unlimited)")
		hedgeBurst  = flag.Float64("hedge-burst", 8, "hedge token-bucket capacity when -hedge-budget is set")

		join       = flag.String("join", "", "comma-separated gesp-serve shard addresses to coordinate over (required)")
		probeEvery = flag.Duration("probe-interval", 50*time.Millisecond, "health-check period")
		reqTimeout = flag.Duration("request-timeout", 2*time.Second, "per-attempt solve deadline")
		degraded   = flag.Bool("degraded-fallback", true, "answer via a live shard's iterative path when every placement is down")

		haID        = flag.Int("ha-id", -1, "HA: this coordinator's id (index into -ha-peers; -1 disables HA)")
		haPeers     = flag.String("ha-peers", "", "HA: comma-separated coordinator addresses, one per replica, ours at index -ha-id")
		haLease     = flag.Duration("ha-lease", time.Second, "HA: leader lease; a follower elects after this long without a heartbeat, a fresh coordinator after one heartbeat of silence")
		haHeartbeat = flag.Duration("ha-heartbeat", 0, "HA: leader heartbeat period (0 = lease/4)")
	)
	flag.Parse()
	if *join == "" {
		log.Fatal("-join is required: comma-separated gesp-serve shard addresses")
	}
	shards := strings.Split(*join, ",")

	rcfg := fleetrpc.DefaultConfig(nil)
	rcfg.Replication = *replication
	rcfg.VNodes = *vnodes
	rcfg.ProbeInterval = *probeEvery
	rcfg.HedgeAfter = *hedgeAfter
	rcfg.HedgeBudget = *hedgeBudget
	rcfg.HedgeBurst = *hedgeBurst
	rcfg.RequestTimeout = *reqTimeout
	rcfg.DegradedFallback = *degraded

	if *haID >= 0 {
		// HA mode: this process is one of N replicated coordinators
		// running leader election; only the lease holder owns a fleet.
		peers := strings.Split(*haPeers, ",")
		node, err := fleetha.NewNode(fleetha.Config{
			ID:        *haID,
			Peers:     peers,
			Shards:    shards,
			Lease:     *haLease,
			Heartbeat: *haHeartbeat,
			Fleet:     rcfg,
			Logf:      log.Printf,
		})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("HA coordinator %d/%d on %s over %d shards (lease %v)",
			*haID, len(peers), *addr, len(shards), *haLease)
		log.Fatal(http.ListenAndServe(*addr, node.Mux()))
	}

	rcfg.Shards = fleetrpc.Dial(shards)
	f, err := fleetrpc.New(rcfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("routing over %d shards (%s) on %s (replication %d, hedge after %v, budget %.2f)",
		len(rcfg.Shards), strings.Join(f.Addrs(), ","), *addr, rcfg.Replication, rcfg.HedgeAfter, rcfg.HedgeBudget)
	log.Fatal(http.ListenAndServe(*addr, fleetrpc.Handler(f)))
}
