package experiments

import (
	"cmp"
	"context"
	"fmt"
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

// FleetProcResult is one arm of the cross-process study.
type FleetProcResult struct {
	Label  string
	Shards int
	LoadResult

	// KilledShard is the member the chaos hit (-1 when none), and
	// DetectLatency how long the membership layer took to declare it
	// dead after the signal was sent.
	KilledShard   int
	DetectLatency time.Duration
	ChaosErr      string

	Stats fleetrpc.Stats
}

// fleetProcArm spawns three shard processes behind a coordinator
// configured by rc, warms the pool through it, and runs l. chaos is
// the fault hitting the hottest pattern's owner halfway through the
// window: "" (none), "sigkill" (the process dies without goodbye) or
// "sigstop" (it freezes: sockets open, requests hang — the
// single-machine stand-in for a network partition).
func fleetProcArm(pool []poolSystem, rc fleetrpc.Config, chaos string, l load) (FleetProcResult, error) {
	const shards = 3
	procs, err := fleetrpc.SpawnShards(shards)
	if err != nil {
		return FleetProcResult{}, fmt.Errorf("experiments: spawn shards: %w", err)
	}
	defer procs.Close()
	rc.Shards = fleetrpc.Dial(procs.Addrs())
	f, err := fleetrpc.New(rc)
	if err != nil {
		return FleetProcResult{}, fmt.Errorf("experiments: coordinator: %w", err)
	}
	defer f.Close()
	ctx := context.Background()
	if err := warm(ctx, fleetTarget(f), pool); err != nil {
		return FleetProcResult{}, err
	}

	r := FleetProcResult{Shards: shards, KilledShard: -1}
	if chaos != "" {
		l.faultAt = l.window / 2
		l.fault = func() {
			// Hit the hottest pattern's owner: the member whose loss the
			// most traffic notices.
			id := f.Owner(pool[0].h.Key.Pattern)
			r.KilledShard = id
			signal := procs.Procs[id].Kill
			if chaos == "sigstop" {
				signal = procs.Procs[id].Stop
			}
			killAt := time.Now()
			if err := signal(); err != nil {
				r.ChaosErr = err.Error()
				return
			}
			_, err := poll("dead transition of the shard", 15*time.Second, 2*time.Millisecond, func() bool {
				for _, m := range f.Members() {
					if m.ID == id && m.State == "dead" {
						r.DetectLatency = max(0, m.ChangedAt.Sub(killAt))
						return true
					}
				}
				return false
			})
			if err != nil {
				r.ChaosErr = err.Error()
			}
		}
	}
	r.LoadResult = runLoad(ctx, fleetTarget(f), pool, l)
	r.Stats = f.Stats()
	return r, nil
}

// FleetProcAblation runs the cross-process fleet three times — no
// fault ("healthy"), SIGKILL, SIGSTOP — with a coordinator tuned so faults are
// detected within a few probe intervals and requests ride the retry /
// hedge / failover ladder instead of failing.
func FleetProcAblation(workers int, duration time.Duration, scale float64) ([]FleetProcResult, error) {
	rc := fleetrpc.Config{
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
	}
	l := load{workers: workers, window: duration, think: time.Millisecond, zipfS: 1.3}
	var arms []FleetProcResult
	for _, chaos := range []string{"", "sigkill", "sigstop"} {
		r, err := fleetProcArm(buildPool(loadPatterns[:4], 2, scale), rc, chaos, l)
		r.Label = cmp.Or(chaos, "healthy")
		if err != nil {
			return nil, fmt.Errorf("experiments: fleetproc %s arm: %w", r.Label, err)
		}
		arms = append(arms, r)
	}
	return arms, nil
}

// FormatFleetProc lays out the chaos ablation: the throughput/tail
// table with the retry-ladder counters, a verdict per fault arm — a
// shard's death must cost retries, not requests — then each arm's
// coordinator counters. A broken verdict (TestChaosSIGKILL and
// TestChaosSIGSTOP assert the same claims) sets Fail.
func FormatFleetProc(arms []FleetProcResult) []Table {
	t := Table{
		Title: []string{"Cross-process fleet under process chaos (mid-run fault on the hottest pattern's owner):"},
		Cols: []Col{{"arm", -10, ""}, {"shards", 7, ""}, {"solves/s", 10, "%.0f"}, {"p50", 10, ""}, {"p99", 10, ""},
			{"fail", 7, ""}, {"retries", 8, ""}, {"failovers", 9, ""}, {"hedged", 7, ""}, {"budget-ok", 9, ""},
			{"degraded", 9, ""}, {"detect", 10, ""}},
	}
	var verdicts Table
	var stats []Table
	for _, r := range arms {
		st := r.Stats
		t.Rows = append(t.Rows, []any{r.Label, r.Shards, r.Throughput, fmtDur(r.P50), fmtDur(r.P99),
			r.Failed, st.Retries, st.Failovers, st.Hedged, fmt.Sprintf("%d/%d", st.HedgeStaked, st.HedgeStaked+st.HedgeDenied),
			st.Degraded, dashDur(r.DetectLatency)})
		stats = append(stats, counters(r.Label, "coordinator", st))
		var fail string
		switch {
		case r.Label == "healthy":
			continue
		case r.ChaosErr != "":
			fail = "CHAOS ERROR: " + r.ChaosErr
		case r.Failed > 0:
			fail = fmt.Sprintf("%d CLIENT-VISIBLE FAILURES: the retry ladder must absorb a shard's death", r.Failed)
		}
		v := cmp.Or(fail, fmt.Sprintf("shard %d died, detected in %v, zero client-visible failures (%d retries, %d failovers, %d re-replicated)",
			r.KilledShard, r.DetectLatency, st.Retries, st.Failovers, st.Rereplicated))
		verdicts.Verdict = append(verdicts.Verdict, fmt.Sprintf("[%s] %s", r.Label, v))
		verdicts.Fail = cmp.Or(verdicts.Fail, fail)
	}
	return append([]Table{t, verdicts}, stats...)
}
