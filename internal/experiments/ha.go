package experiments

import (
	"cmp"
	"context"
	"fmt"
	"time"

	"gesp/internal/fleetha"
	"gesp/internal/fleetrpc"
)

// The coordinator-HA experiment: real coordinator processes running
// lease-based leader election over real shard processes, with an HA
// client following redirects. One fault is injected mid-run: SIGKILL
// of the leader coordinator (the control plane dies without goodbye).
// The run measures the HA story's two numbers: failover detection
// latency and registry entries lost across the failover (must be
// zero).

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

	ChaosErr string
}

// haArm spawns three coordinator processes configured by tmpl over
// three shard processes, warms the pool through the HA client and runs l.
// chaos is the mid-run fault: "" (none) or "leaderkill" (SIGKILL the
// leader halfway through the window).
func haArm(pool []poolSystem, tmpl fleetha.ChildConfig, chaos string, l load) (HAResult, error) {
	const shards, coords = 3, 3
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
	if chaos == "leaderkill" {
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

// HAAblation runs the coordinator cluster twice — no fault, then
// leader SIGKILL — with election timing tuned so a failover lands
// within a few heartbeats.
func HAAblation(workers int, duration time.Duration, scale float64) ([]HAResult, error) {
	var arms []HAResult
	for _, chaos := range []string{"", "leaderkill"} {
		label := cmp.Or(chaos, "healthy")
		tmpl := fleetha.ChildConfig{LeaseMS: 250, HeartbeatMS: 60, Replication: 2}
		l := load{workers: workers, window: duration, think: time.Millisecond, zipfS: 1.3}
		r, err := haArm(buildPool(loadPatterns[:3], 2, scale), tmpl, chaos, l)
		if err != nil {
			return nil, fmt.Errorf("experiments: ha %s arm: %w", label, err)
		}
		r.Label = label
		arms = append(arms, r)
	}
	return arms, nil
}

// FormatHA lays out the coordinator-HA ablation: the throughput/tail
// table with the HA-specific columns, then the leader-kill verdict —
// the leader's death must cost a redirect, not a request. A broken
// verdict (TestHALeaderKill asserts the same claims) sets Fail.
func FormatHA(arms []HAResult) []Table {
	t := Table{
		Title: []string{"Coordinator HA under chaos (replicated control plane):"},
		Cols: []Col{{"arm", -11, ""}, {"coords", 7, ""}, {"shards", 7, ""}, {"solves/s", 10, "%.0f"}, {"p50", 10, ""},
			{"p99", 10, ""}, {"fail", 7, ""}, {"failover", 10, ""}, {"lost", 6, ""}},
	}
	var verdicts Table
	for _, r := range arms {
		lost := any("-")
		if r.Label == "leaderkill" {
			lost = r.RegistryLost
		}
		t.Rows = append(t.Rows, []any{r.Label, r.Coordinators, r.Shards, r.Throughput, fmtDur(r.P50), fmtDur(r.P99),
			r.Failed, dashDur(r.FailoverLatency), lost})
		var fail string
		switch {
		case r.ChaosErr != "":
			fail = "CHAOS ERROR: " + r.ChaosErr
		case r.Label == "leaderkill" && r.Failed > 0:
			fail = fmt.Sprintf("%d CLIENT-VISIBLE FAILURES: the redirect/retry ladder must absorb the leader's death", r.Failed)
		case r.Label == "leaderkill" && r.RegistryLost != 0:
			fail = fmt.Sprintf("%d REGISTRY ENTRIES LOST: replication must hand the successor every handle", r.RegistryLost)
		case r.Label != "leaderkill":
			continue
		}
		v := cmp.Or(fail, fmt.Sprintf("coordinator %d killed, failover in %v, 0 of %d registry entries lost, zero client-visible failures",
			r.KilledCoord, r.FailoverLatency, r.RegistryBefore))
		verdicts.Verdict = append(verdicts.Verdict, fmt.Sprintf("[%s] %s", r.Label, v))
		verdicts.Fail = cmp.Or(verdicts.Fail, fail)
	}
	return []Table{t, verdicts}
}
