package experiments

import (
	"cmp"
	"context"
	"fmt"
	"slices"
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

// HAResult is one arm of the coordinator-HA study.
type HAResult struct {
	Label        string
	Shards       int
	Coordinators int
	LoadResult

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

// haArm spawns coords coordinator processes configured by tmpl over
// three shard processes, warms the pool through the HA client and runs l.
// chaos is the mid-run fault: "" (none), "leaderkill" (SIGKILL the
// leader halfway through the window), or "slobreach" (a quarter in,
// every shard straggles by 100ms until the controller promotes; then
// the straggle clears and the arm waits for the demote).
func haArm(pool []poolSystem, coords int, tmpl fleetha.ChildConfig, chaos string, l load) (HAResult, error) {
	const shards = 3
	sp, err := fleetrpc.SpawnShards(shards)
	if err != nil {
		return HAResult{}, fmt.Errorf("experiments: spawn shards: %w", err)
	}
	defer sp.Close()
	tmpl.Shards = sp.Addrs()
	cp, err := fleetha.SpawnCoordinators(coords, tmpl)
	if err != nil {
		return HAResult{}, fmt.Errorf("experiments: spawn coordinators: %w", err)
	}
	defer cp.Close()
	cli, err := fleetha.NewClient(fleetha.ClientConfig{
		Coordinators:   cp.Addrs(),
		Retry:          fleetrpc.Backoff{Attempts: 12, Base: 10 * time.Millisecond, Max: 250 * time.Millisecond},
		AttemptTimeout: 5 * time.Second,
		Seed:           loadSeed,
	})
	if err != nil {
		return HAResult{}, fmt.Errorf("experiments: ha client: %w", err)
	}
	leader, err := awaitLeader(cli, cp.Addrs(), -1, 15*time.Second)
	if err != nil {
		return HAResult{}, fmt.Errorf("experiments: %w", err)
	}
	ctx := context.Background()
	if err := warm(ctx, haTarget(cli), pool); err != nil {
		return HAResult{}, err
	}

	r := HAResult{Shards: shards, Coordinators: coords, KilledCoord: -1}
	if st, err := cli.Status(ctx, cp.Addrs()[leader]); err == nil {
		r.RegistryBefore = st.RegistryLen
	}
	// straggle sets every shard's injected solve delay.
	straggle := func(ms int64) {
		for _, addr := range sp.Addrs() {
			if err := fleetrpc.NewClient(addr).SetChaosDelay(ctx, ms); err != nil {
				r.ChaosErr = err.Error()
			}
		}
	}
	// decided polls the leader's decision trace until an action of the
	// wanted kind appears, and returns how long the wait took.
	decided := func(want fleetha.Action) time.Duration {
		d, err := poll(string(want)+" decision", 30*time.Second, 25*time.Millisecond, func() bool {
			tctx, cancel := context.WithTimeout(ctx, time.Second)
			defer cancel()
			tr, err := cli.Trace(tctx)
			return err == nil && slices.ContainsFunc(tr.Decisions, func(d fleetha.Decision) bool { return d.Action == want })
		})
		if err != nil {
			r.ChaosErr = err.Error()
		}
		return d
	}
	switch chaos {
	case "leaderkill":
		l.faultAt = l.window / 2
		l.fault = func() {
			r.KilledCoord = leader
			killAt := time.Now()
			if err := cp.Procs[leader].Kill(); err != nil {
				r.ChaosErr = err.Error()
				return
			}
			next, err := awaitLeader(cli, cp.Addrs(), leader, 20*time.Second)
			if err != nil {
				r.ChaosErr = err.Error()
				return
			}
			r.FailoverLatency = time.Since(killAt)
			st, err := cli.Status(ctx, cp.Addrs()[next])
			if err != nil {
				r.ChaosErr = err.Error()
				return
			}
			r.RegistryAfter = st.RegistryLen
			r.RegistryLost = r.RegistryBefore - r.RegistryAfter
		}
	case "slobreach":
		l.faultAt = l.window / 4
		l.fault = func() {
			straggle(100)
			r.PromoteLatency = decided(fleetha.ActPromote)
			straggle(0)
			r.RecoverLatency = decided(fleetha.ActDemote)
			if tr, err := cli.Trace(ctx); err == nil {
				r.Decisions = tr.Decisions
			}
		}
	}
	r.LoadResult = runLoad(ctx, haTarget(cli), pool, l)
	return r, nil
}

// awaitLeader polls coordinator statuses until one (excluding skip)
// claims leadership.
func awaitLeader(cli *fleetha.Client, addrs []string, skip int, timeout time.Duration) (int, error) {
	leader := -1
	_, err := poll("coordinator claiming leadership", timeout, 5*time.Millisecond, func() bool {
		for i, addr := range addrs {
			if i == skip {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			st, err := cli.Status(ctx, addr)
			cancel()
			if err == nil && st.Role == fleetha.RoleLeader {
				leader = i
				return true
			}
		}
		return false
	})
	return leader, err
}

// HAAblation runs the coordinator cluster three times — no fault,
// leader SIGKILL, latency SLO breach — with election timing tuned so a
// failover lands within a few heartbeats and a controller tuned so the
// breach arm converges within the run.
func HAAblation(workers int, duration time.Duration, scale float64) ([]HAResult, error) {
	var arms []HAResult
	for _, chaos := range []string{"", "leaderkill", "slobreach"} {
		label := cmp.Or(chaos, "healthy")
		coords := 3
		tmpl := fleetha.ChildConfig{LeaseMS: 250, HeartbeatMS: 60, Replication: 2}
		l := load{workers: workers, window: duration, think: time.Millisecond, zipfS: 1.3}
		if chaos == "slobreach" {
			// a single coordinator with replication 1: promotion is what
			// restores hedging headroom, so the controller's effect is the
			// signal being measured, not a bystander
			coords = 1
			tmpl.Replication = 1
			tmpl.HedgeAfterMS = 20
			// SLO and clear margins sit clear of the latency histogram's
			// power-of-two buckets on slow machines: breach delay 100ms →
			// p999 ≥ 131ms > 70ms; post-clear p999 ≤ 32.8ms < 35ms.
			tmpl.Controller = &fleetha.ControllerConfig{
				SLO:              70 * time.Millisecond,
				Window:           150 * time.Millisecond,
				CooldownWindows:  2,
				MaxBoost:         1,
				HotK:             1,
				MinWindowSamples: 5,
			}
			l.window = max(l.window, 4*time.Second)
		}
		r, err := haArm(buildPool(loadPatterns[:3], 2, scale), coords, tmpl, chaos, l)
		if err != nil {
			return nil, fmt.Errorf("experiments: ha %s arm: %w", label, err)
		}
		r.Label = label
		arms = append(arms, r)
	}
	return arms, nil
}

// FormatHA lays out the coordinator-HA ablation: the throughput/tail
// table with the HA-specific columns, then a verdict per fault arm —
// the leader's death must cost a redirect, not a request, and an SLO
// breach must cost a promotion, not a breach forever.
func FormatHA(arms []HAResult) []Table {
	t := Table{
		Title: []string{"Coordinator HA under chaos (replicated control plane + SLO controller):"},
		Cols: []Col{{"arm", -11, ""}, {"coords", 7, ""}, {"shards", 7, ""}, {"solves/s", 10, "%.0f"}, {"p50", 10, ""},
			{"p99", 10, ""}, {"fail", 7, ""}, {"failover", 10, ""}, {"lost", 6, ""}, {"promote", 10, ""}, {"recover", 10, ""}},
	}
	var verdicts Table
	for _, r := range arms {
		lost := any("-")
		if r.Label == "leaderkill" {
			lost = r.RegistryLost
		}
		t.Rows = append(t.Rows, []any{r.Label, r.Coordinators, r.Shards, r.Throughput, fmtDur(r.P50), fmtDur(r.P99),
			r.Failed, dashDur(r.FailoverLatency), lost, dashDur(r.PromoteLatency), dashDur(r.RecoverLatency)})
		var v string
		var trace []string
		switch {
		case r.ChaosErr != "":
			v = "CHAOS ERROR: " + r.ChaosErr
		case r.Label == "leaderkill" && r.Failed > 0:
			v = fmt.Sprintf("%d CLIENT-VISIBLE FAILURES: the redirect/retry ladder must absorb the leader's death", r.Failed)
		case r.Label == "leaderkill" && r.RegistryLost != 0:
			v = fmt.Sprintf("%d REGISTRY ENTRIES LOST: replication must hand the successor every handle", r.RegistryLost)
		case r.Label == "leaderkill":
			v = fmt.Sprintf("coordinator %d killed, failover in %v, 0 of %d registry entries lost, zero client-visible failures",
				r.KilledCoord, r.FailoverLatency, r.RegistryBefore)
		case r.Label == "slobreach" && r.Failed > 0:
			v = fmt.Sprintf("%d CLIENT-VISIBLE FAILURES during the breach", r.Failed)
		case r.Label == "slobreach":
			v = fmt.Sprintf("breach promoted in %v, recovered (demote) %v after clear; %d controller decisions",
				r.PromoteLatency, r.RecoverLatency, len(r.Decisions))
			for _, d := range r.Decisions {
				trace = append(trace, fmt.Sprintf("    w%d %s %s", d.Window, d.Action, d.Reason))
			}
		default:
			continue
		}
		verdicts.Verdict = append(verdicts.Verdict, fmt.Sprintf("[%s] %s", r.Label, v))
		verdicts.Verdict = append(verdicts.Verdict, trace...)
	}
	return []Table{t, verdicts}
}
