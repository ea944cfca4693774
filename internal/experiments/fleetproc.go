package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gesp/internal/fleetrpc"
)

// The cross-process fleet experiment: real shard processes (re-exec'd
// from the current binary), a fleetrpc coordinator routing a Zipf load
// over them, and a process fault injected mid-run — SIGKILL for an
// ungraceful death, SIGSTOP for a partition-shaped hang. It measures
// the robustness story end to end: how fast the prober detects the
// death, how many requests were retried / failed over / hedged /
// degraded instead of failed, and what the hedge budget spent.

// FleetProcConfig parameterizes one cross-process chaos run.
type FleetProcConfig struct {
	// Shards is how many shard processes to spawn.
	Shards int
	// Coordinator configures the fleetrpc layer; Shards is filled in by
	// the runner from the spawned processes.
	Coordinator fleetrpc.Config
	// ShardConf is passed to each spawned shard.
	ShardConf fleetrpc.ShardConf

	Workers  int
	Patterns int
	Variants int
	Duration time.Duration
	Scale    float64
	ZipfS    float64
	// ThinkTime decouples offered load from service latency so the
	// chaos arms see similar arrival rates.
	ThinkTime time.Duration
	Seed      int64

	// Chaos is the mid-run fault: "" (none), "sigkill" (the hottest
	// pattern's owner process dies without goodbye), or "sigstop" (it
	// freezes: sockets open, requests hang — the single-machine stand-in
	// for a network partition).
	Chaos string
}

// FleetProcResult is one run's measurement.
type FleetProcResult struct {
	Label      string
	Shards     int
	Workers    int
	Systems    int
	Solves     uint64
	Failed     uint64 // client-visible failures — the number that must be zero
	Elapsed    time.Duration
	Throughput float64
	P50, P99   time.Duration

	// KilledShard is the member the chaos hit (-1 when none), and
	// DetectLatency how long the membership layer took to declare it
	// dead after the signal was sent.
	KilledShard   int
	DetectLatency time.Duration
	ChaosErr      string

	Stats fleetrpc.Stats
}

// RunFleetProc spawns the shard processes, warms the coordinator
// (every system submitted — owner and replica — and solved once), runs
// the closed-loop Zipf load, and injects the configured fault at the
// midpoint.
func RunFleetProc(cfg FleetProcConfig) (*FleetProcResult, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Patterns <= 0 {
		cfg.Patterns = 4
	}
	if cfg.Patterns > len(fleetLoadPatterns) {
		cfg.Patterns = len(fleetLoadPatterns)
	}
	if cfg.Variants <= 0 {
		cfg.Variants = 2
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.25
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.3
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}

	procs, err := fleetrpc.SpawnShards(cfg.Shards, cfg.ShardConf)
	if err != nil {
		return nil, fmt.Errorf("experiments: spawn shards: %w", err)
	}
	defer procs.Close()

	rcfg := cfg.Coordinator
	rcfg.Shards = fleetrpc.Dial(procs.Addrs())
	f, err := fleetrpc.New(rcfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: coordinator: %w", err)
	}
	defer f.Close()
	ctx := context.Background()

	pool, err := buildPool(fleetLoadPatterns[:cfg.Patterns], cfg.Variants, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for i := range pool {
		e := &pool[i]
		if e.h, err = f.Submit(ctx, fleetrpc.WireMatrix(e.a)); err != nil {
			return nil, fmt.Errorf("experiments: warm submit %s: %w", e.label, err)
		}
		if _, err := f.Solve(ctx, e.h, e.b); err != nil {
			return nil, fmt.Errorf("experiments: warm solve %s: %w", e.label, err)
		}
	}

	res := &FleetProcResult{
		Shards:      cfg.Shards,
		Workers:     cfg.Workers,
		Systems:     len(pool),
		KilledShard: -1,
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		solves    uint64
		failed    uint64
	)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	for wkr := 0; wkr < cfg.Workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(7000+wkr)))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(pool)-1))
			var local []time.Duration
			var mySolves, myFailed uint64
			for time.Now().Before(deadline) {
				e := &pool[zipf.Uint64()]
				t0 := time.Now()
				_, serr := f.Solve(ctx, e.h, e.b)
				if serr == nil {
					local = append(local, time.Since(t0))
					mySolves++
				} else {
					myFailed++
				}
				if cfg.ThinkTime > 0 {
					time.Sleep(cfg.ThinkTime)
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			solves += mySolves
			failed += myFailed
			mu.Unlock()
		}(wkr)
	}

	if cfg.Chaos != "" {
		time.Sleep(cfg.Duration / 2)
		// Hit the hottest pattern's owner: the member whose loss the
		// most traffic notices.
		target := f.Owner(pool[0].h.Key.Pattern)
		res.KilledShard = target
		killAt := time.Now()
		var cerr error
		switch cfg.Chaos {
		case "sigkill":
			cerr = procs.Procs[target].Kill()
		case "sigstop":
			cerr = procs.Procs[target].Stop()
		default:
			cerr = fmt.Errorf("unknown chaos %q", cfg.Chaos)
		}
		if cerr != nil {
			res.ChaosErr = cerr.Error()
		} else if det, derr := awaitDeath(f, target, killAt, 15*time.Second); derr != nil {
			res.ChaosErr = derr.Error()
		} else {
			res.DetectLatency = det
		}
	}
	wg.Wait()

	res.Solves = solves
	res.Failed = failed
	res.Elapsed = cfg.Duration
	res.Throughput = float64(solves) / cfg.Duration.Seconds()
	res.Stats = f.Stats()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50, res.P99 = percentile(latencies, 0.50), percentile(latencies, 0.99)
	return res, nil
}

// awaitDeath polls the membership table until member id is dead and
// returns how long after killAt the dead transition was stamped.
func awaitDeath(f *fleetrpc.Fleet, id int, killAt time.Time, timeout time.Duration) (time.Duration, error) {
	waitUntil := time.Now().Add(timeout)
	for time.Now().Before(waitUntil) {
		for _, m := range f.Members() {
			if m.ID == id && m.State == "dead" {
				d := m.ChangedAt.Sub(killAt)
				if d < 0 {
					d = 0
				}
				return d, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return 0, errors.New("membership never declared the shard dead")
}

// FleetProcAblationResult holds the chaos arms.
type FleetProcAblationResult struct {
	Arms []FleetProcResult // healthy, sigkill, sigstop
}

// FleetProcAblation runs the cross-process fleet three times — no
// fault, SIGKILL, SIGSTOP — with a coordinator tuned so faults are
// detected within a few probe intervals and requests ride the retry /
// hedge / failover ladder instead of failing.
func FleetProcAblation(workers int, duration time.Duration, scale float64) (*FleetProcAblationResult, error) {
	base := FleetProcConfig{
		Shards:    3,
		Workers:   workers,
		Patterns:  4,
		Variants:  2,
		Duration:  duration,
		Scale:     scale,
		ThinkTime: time.Millisecond,
		Coordinator: fleetrpc.Config{
			Replication:      2,
			ProbeInterval:    25 * time.Millisecond,
			ProbeTimeout:     150 * time.Millisecond,
			SuspectAfter:     1,
			DeadAfter:        3,
			Retry:            fleetrpc.Backoff{Attempts: 5, Base: 20 * time.Millisecond, Max: 300 * time.Millisecond},
			RequestTimeout:   750 * time.Millisecond,
			HedgeAfter:       75 * time.Millisecond,
			HedgeBudget:      0.2,
			HedgeBurst:       8,
			DegradedFallback: true,
		},
	}
	res := &FleetProcAblationResult{}
	for _, arm := range []struct{ label, chaos string }{
		{"healthy", ""},
		{"sigkill", "sigkill"},
		{"sigstop", "sigstop"},
	} {
		cfg := base
		cfg.Chaos = arm.chaos
		r, err := RunFleetProc(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: fleetproc %s arm: %w", arm.label, err)
		}
		r.Label = arm.label
		res.Arms = append(res.Arms, *r)
	}
	return res, nil
}

// PrintFleetProc formats the chaos ablation: the throughput/tail table
// with the retry-ladder counters, then a verdict per fault arm — a
// shard's death must cost retries, not requests.
//
//gesp:errok
func PrintFleetProc(w io.Writer, res *FleetProcAblationResult) {
	fmt.Fprintln(w, "Cross-process fleet under process chaos (mid-run fault on the hottest pattern's owner):")
	fmt.Fprintf(w, "%-10s %7s %10s %10s %10s %7s %8s %9s %7s %9s %9s %10s\n",
		"arm", "shards", "solves/s", "p50", "p99", "fail", "retries", "failovers", "hedged", "budget-ok", "degraded", "detect")
	for _, r := range res.Arms {
		detect := "-"
		if r.DetectLatency > 0 {
			detect = fmtDur(r.DetectLatency)
		}
		budget := fmt.Sprintf("%d/%d", r.Stats.HedgeStaked, r.Stats.HedgeStaked+r.Stats.HedgeDenied)
		fmt.Fprintf(w, "%-10s %7d %10.0f %10s %10s %7d %8d %9d %7d %9s %9d %10s\n",
			r.Label, r.Shards, r.Throughput, fmtDur(r.P50), fmtDur(r.P99),
			r.Failed, r.Stats.Retries, r.Stats.Failovers, r.Stats.Hedged, budget,
			r.Stats.Degraded, detect)
	}
	fmt.Fprintln(w)
	for _, r := range res.Arms {
		if r.Label == "healthy" {
			continue
		}
		switch {
		case r.ChaosErr != "":
			fmt.Fprintf(w, "[%s] CHAOS ERROR: %s\n", r.Label, r.ChaosErr)
		case r.Failed > 0:
			fmt.Fprintf(w, "[%s] %d CLIENT-VISIBLE FAILURES: the retry ladder must absorb a shard's death\n", r.Label, r.Failed)
		default:
			fmt.Fprintf(w, "[%s] shard %d died, detected in %v, zero client-visible failures (%d retries, %d failovers, %d re-replicated)\n",
				r.Label, r.KilledShard, r.DetectLatency, r.Stats.Retries, r.Stats.Failovers, r.Stats.Rereplicated)
		}
	}
	for _, r := range res.Arms {
		fmt.Fprintf(w, "\n[%s] coordinator counters:\n%s", r.Label, indent(r.Stats.String(), "  "))
	}
}
