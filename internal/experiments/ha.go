package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gesp/internal/fleetha"
	"gesp/internal/fleetrpc"
)

// The coordinator-HA experiment: real coordinator processes running
// lease-based leader election over real shard processes, with an HA
// client following redirects. Two faults are injected mid-run —
// SIGKILL of the leader coordinator (the control plane dies without
// goodbye) and a latency SLO breach (every shard straggles until the
// controller reacts). The run measures the HA story's three numbers:
// failover detection latency, registry entries lost across the
// failover (must be zero), and time-to-SLO-recovery.

// HAConfig parameterizes one coordinator-HA chaos run.
type HAConfig struct {
	Shards       int
	Coordinators int
	Workers      int
	Patterns     int
	Variants     int
	Duration     time.Duration
	Scale        float64
	ZipfS        float64
	ThinkTime    time.Duration
	Seed         int64

	// Template is the topology posted to every coordinator; Shards and
	// per-child identity are filled in by the runner.
	Template fleetha.ConfigureRequest

	// Chaos is the mid-run fault: "" (none), "leaderkill" (SIGKILL the
	// leader coordinator), or "slobreach" (every shard straggles by
	// BreachDelayMS until the controller promotes, then the straggle
	// clears and the run waits for the demote).
	Chaos         string
	BreachDelayMS int64
}

// HAResult is one run's measurement.
type HAResult struct {
	Label        string
	Shards       int
	Coordinators int
	Systems      int
	Solves       uint64
	Failed       uint64 // client-visible failures — must be zero
	Elapsed      time.Duration
	Throughput   float64
	P50, P99     time.Duration

	// Leader-kill arm: which coordinator led, how long until a survivor
	// claimed the lease, and the registry count across the failover.
	KilledCoord     int
	FailoverLatency time.Duration
	RegistryBefore  int
	RegistryAfter   int
	RegistryLost    int

	// SLO-breach arm: how long the controller took to promote after the
	// breach and to demote after the clear (time-to-SLO-recovery), plus
	// the decision trace it logged.
	PromoteLatency time.Duration
	RecoverLatency time.Duration
	Decisions      []fleetha.Decision

	ChaosErr string
}

// RunHA spawns the coordinator and shard processes, wires the
// topology, warms the pool through the HA client, runs the closed-loop
// Zipf load, and injects the configured fault at the midpoint.
func RunHA(cfg HAConfig) (*HAResult, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.Coordinators <= 0 {
		cfg.Coordinators = 3
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Patterns <= 0 {
		cfg.Patterns = 3
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
	if cfg.BreachDelayMS <= 0 {
		cfg.BreachDelayMS = 100
	}

	shards, err := fleetrpc.SpawnShards(cfg.Shards, fleetrpc.ShardConf{})
	if err != nil {
		return nil, fmt.Errorf("experiments: spawn shards: %w", err)
	}
	defer shards.Close()
	coords, err := fleetha.SpawnCoordinators(cfg.Coordinators)
	if err != nil {
		return nil, fmt.Errorf("experiments: spawn coordinators: %w", err)
	}
	defer coords.Close()

	template := cfg.Template
	template.Shards = shards.Addrs()
	if err := fleetha.ConfigureCoordinators(coords.Addrs(), template); err != nil {
		return nil, fmt.Errorf("experiments: configure coordinators: %w", err)
	}
	cli, err := fleetha.NewClient(fleetha.ClientConfig{
		Coordinators:   coords.Addrs(),
		Retry:          fleetrpc.Backoff{Attempts: 12, Base: 10 * time.Millisecond, Max: 250 * time.Millisecond},
		AttemptTimeout: 5 * time.Second,
		Seed:           cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: ha client: %w", err)
	}

	ctx := context.Background()
	leader, err := haAwaitLeader(cli, coords.Addrs(), -1, 15*time.Second)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}

	pool, err := buildPool(fleetLoadPatterns[:cfg.Patterns], cfg.Variants, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}
	for i := range pool {
		e := &pool[i]
		if e.h, err = cli.Submit(ctx, e.a); err != nil {
			return nil, fmt.Errorf("experiments: warm submit %s: %w", e.label, err)
		}
		if _, err := cli.Solve(ctx, e.h, e.b); err != nil {
			return nil, fmt.Errorf("experiments: warm solve %s: %w", e.label, err)
		}
	}

	res := &HAResult{
		Shards:       cfg.Shards,
		Coordinators: cfg.Coordinators,
		Systems:      len(pool),
		KilledCoord:  -1,
	}
	if st, serr := cli.Status(ctx, coords.Addrs()[leader]); serr == nil {
		res.RegistryBefore = st.RegistryLen
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
				sctx, cancel := context.WithTimeout(ctx, 15*time.Second)
				_, serr := cli.Solve(sctx, e.h, e.b)
				cancel()
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

	switch cfg.Chaos {
	case "":
	case "leaderkill":
		time.Sleep(cfg.Duration / 2)
		res.KilledCoord = leader
		killAt := time.Now()
		if cerr := coords.Procs[leader].Kill(); cerr != nil {
			res.ChaosErr = cerr.Error()
			break
		}
		next, ferr := haAwaitLeader(cli, coords.Addrs(), leader, 20*time.Second)
		if ferr != nil {
			res.ChaosErr = ferr.Error()
			break
		}
		res.FailoverLatency = time.Since(killAt)
		if st, serr := cli.Status(ctx, coords.Addrs()[next]); serr == nil {
			res.RegistryAfter = st.RegistryLen
			res.RegistryLost = res.RegistryBefore - res.RegistryAfter
		} else {
			res.ChaosErr = serr.Error()
		}
	case "slobreach":
		time.Sleep(cfg.Duration / 4)
		for _, addr := range shards.Addrs() {
			if cerr := fleetrpc.NewClient(addr).SetChaosDelay(ctx, cfg.BreachDelayMS); cerr != nil {
				res.ChaosErr = cerr.Error()
			}
		}
		if d, werr := haAwaitDecision(ctx, cli, fleetha.ActPromote, 30*time.Second); werr != nil {
			res.ChaosErr = werr.Error()
		} else {
			res.PromoteLatency = d
		}
		for _, addr := range shards.Addrs() {
			if cerr := fleetrpc.NewClient(addr).SetChaosDelay(ctx, 0); cerr != nil {
				res.ChaosErr = cerr.Error()
			}
		}
		if d, werr := haAwaitDecision(ctx, cli, fleetha.ActDemote, 30*time.Second); werr != nil {
			res.ChaosErr = werr.Error()
		} else {
			res.RecoverLatency = d
		}
		if tr, terr := cli.Trace(ctx); terr == nil {
			res.Decisions = tr.Decisions
		}
	default:
		res.ChaosErr = fmt.Sprintf("unknown chaos %q", cfg.Chaos)
	}
	wg.Wait()

	res.Solves = solves
	res.Failed = failed
	res.Elapsed = time.Since(start)
	res.Throughput = float64(solves) / res.Elapsed.Seconds()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50, res.P99 = percentile(latencies, 0.50), percentile(latencies, 0.99)
	return res, nil
}

// haAwaitLeader polls coordinator statuses until one (excluding skip)
// claims leadership.
func haAwaitLeader(cli *fleetha.Client, addrs []string, skip int, timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, addr := range addrs {
			if i == skip {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			st, err := cli.Status(ctx, addr)
			cancel()
			if err == nil && st.Role == fleetha.RoleLeader {
				return i, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return -1, fmt.Errorf("no coordinator claimed leadership within %v", timeout)
}

// haAwaitDecision polls the leader's decision trace until an action of
// the wanted kind appears, returning how long the wait took.
func haAwaitDecision(ctx context.Context, cli *fleetha.Client, want fleetha.Action, timeout time.Duration) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	for time.Now().Before(deadline) {
		tctx, cancel := context.WithTimeout(ctx, time.Second)
		tr, err := cli.Trace(tctx)
		cancel()
		if err == nil {
			for _, d := range tr.Decisions {
				if d.Action == want {
					return time.Since(start), nil
				}
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return 0, fmt.Errorf("controller logged no %s decision within %v", want, timeout)
}

// HAAblationResult holds the coordinator-HA arms.
type HAAblationResult struct {
	Arms []HAResult // healthy, leaderkill, slobreach
}

// HAAblation runs the coordinator cluster three times — no fault,
// leader SIGKILL, latency SLO breach — with election timing tuned so a
// failover lands within a few heartbeats and a controller tuned so the
// breach arm converges within the run.
func HAAblation(workers int, duration time.Duration, scale float64) (*HAAblationResult, error) {
	base := HAConfig{
		Shards:       3,
		Coordinators: 3,
		Workers:      workers,
		Patterns:     3,
		Variants:     2,
		Duration:     duration,
		Scale:        scale,
		ThinkTime:    time.Millisecond,
		Template: fleetha.ConfigureRequest{
			LeaseMS:     250,
			HeartbeatMS: 60,
			Replication: 2,
		},
	}
	res := &HAAblationResult{}
	for _, arm := range []struct{ label, chaos string }{
		{"healthy", ""},
		{"leaderkill", "leaderkill"},
		{"slobreach", "slobreach"},
	} {
		cfg := base
		cfg.Chaos = arm.chaos
		if arm.chaos == "slobreach" {
			// a single coordinator with replication 1: promotion is what
			// restores hedging headroom, so the controller's effect is the
			// signal being measured, not a bystander
			cfg.Coordinators = 1
			cfg.Template.Replication = 1
			cfg.Template.HedgeAfterMS = 20
			// SLO and clear margins sit clear of the latency histogram's
			// power-of-two buckets on slow machines: breach delay 100ms →
			// p999 ≥ 131ms > 70ms; post-clear p999 ≤ 32.8ms < 35ms.
			cfg.Template.Controller = &fleetha.ControllerConfig{
				SLO:              70 * time.Millisecond,
				Window:           150 * time.Millisecond,
				ClearFraction:    0.5,
				BreachAfter:      2,
				ClearAfter:       2,
				CooldownWindows:  2,
				MaxBoost:         1,
				HotK:             1,
				MinWindowSamples: 5,
			}
			if cfg.Duration < 4*time.Second {
				cfg.Duration = 4 * time.Second
			}
		}
		r, err := RunHA(cfg)
		if err != nil {
			return nil, fmt.Errorf("experiments: ha %s arm: %w", arm.label, err)
		}
		r.Label = arm.label
		res.Arms = append(res.Arms, *r)
	}
	return res, nil
}

// PrintHA formats the coordinator-HA ablation: the throughput/tail
// table with the HA-specific columns, then a verdict per fault arm —
// the leader's death must cost a redirect, not a request, and an SLO
// breach must cost a promotion, not a breach forever.
//
//gesp:errok
func PrintHA(w io.Writer, res *HAAblationResult) {
	fmt.Fprintln(w, "Coordinator HA under chaos (replicated control plane + SLO controller):")
	fmt.Fprintf(w, "%-11s %7s %7s %10s %10s %10s %7s %10s %6s %10s %10s\n",
		"arm", "coords", "shards", "solves/s", "p50", "p99", "fail", "failover", "lost", "promote", "recover")
	for _, r := range res.Arms {
		col := func(d time.Duration) string {
			if d <= 0 {
				return "-"
			}
			return fmtDur(d)
		}
		lost := "-"
		if r.Label == "leaderkill" {
			lost = fmt.Sprintf("%d", r.RegistryLost)
		}
		fmt.Fprintf(w, "%-11s %7d %7d %10.0f %10s %10s %7d %10s %6s %10s %10s\n",
			r.Label, r.Coordinators, r.Shards, r.Throughput, fmtDur(r.P50), fmtDur(r.P99),
			r.Failed, col(r.FailoverLatency), lost, col(r.PromoteLatency), col(r.RecoverLatency))
	}
	fmt.Fprintln(w)
	for _, r := range res.Arms {
		switch {
		case r.ChaosErr != "":
			fmt.Fprintf(w, "[%s] CHAOS ERROR: %s\n", r.Label, r.ChaosErr)
		case r.Label == "leaderkill" && r.Failed > 0:
			fmt.Fprintf(w, "[%s] %d CLIENT-VISIBLE FAILURES: the redirect/retry ladder must absorb the leader's death\n", r.Label, r.Failed)
		case r.Label == "leaderkill" && r.RegistryLost != 0:
			fmt.Fprintf(w, "[%s] %d REGISTRY ENTRIES LOST: replication must hand the successor every handle\n", r.Label, r.RegistryLost)
		case r.Label == "leaderkill":
			fmt.Fprintf(w, "[%s] coordinator %d killed, failover in %v, 0 of %d registry entries lost, zero client-visible failures\n",
				r.Label, r.KilledCoord, r.FailoverLatency, r.RegistryBefore)
		case r.Label == "slobreach" && r.Failed > 0:
			fmt.Fprintf(w, "[%s] %d CLIENT-VISIBLE FAILURES during the breach\n", r.Label, r.Failed)
		case r.Label == "slobreach":
			fmt.Fprintf(w, "[%s] breach promoted in %v, recovered (demote) %v after clear; %d controller decisions\n",
				r.Label, r.PromoteLatency, r.RecoverLatency, len(r.Decisions))
			for _, d := range r.Decisions {
				fmt.Fprintf(w, "    w%-4d %-8s %s\n", d.Window, d.Action, d.Reason)
			}
		}
	}
}
