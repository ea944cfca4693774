package experiments

import (
	"cmp"
	"context"
	"fmt"
	"sort"
	"time"

	"gesp/internal/fleet"
	"gesp/internal/fleetrpc"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

// The fleet experiment: a closed-loop, Zipf-skewed, diurnally bursty
// load over the sharded solve fleet. It measures what the fleet layer
// is for — how throughput scales with shards when the per-shard factor
// cache is the bottleneck, what hedging does to the tail when one shard
// straggles, and whether a mid-run drain loses requests.

// FleetLoadResult is one arm of the fleet study.
type FleetLoadResult struct {
	Label      string
	ShardCount int
	LoadResult
	FactorRunsWarm  int64 // numeric factorizations after warmup
	FactorRunsFinal int64 // ... and at the end of the run
	DrainErr        string
	Stats           fleetrpc.Stats
}

// slowShard delays every solve on the wrapped shard by a fixed time.
type slowShard struct {
	fleetrpc.Shard
	by time.Duration
}

func (s slowShard) Solve(ctx context.Context, h serve.Handle, b []float64) ([]float64, error) {
	select {
	case <-time.After(s.by):
		return s.Shard.Solve(ctx, h, b)
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// fleetArm runs pool over shards in-process shards (each a
// serve.Service configured by svc) behind one router configured by rc.
// slowHot, when positive, delays every solve on the home shard of the
// pool's most popular system — the straggler, placed where it sits in
// the hot path. drain drains that home shard halfway through the
// window.
func fleetArm(pool []poolSystem, shards int, svc serve.Config, rc fleetrpc.Config, slowHot time.Duration, drain bool, l load) (FleetLoadResult, error) {
	svcs := make([]*serve.Service, shards)
	for i := range svcs {
		svcs[i] = serve.New(svc)
		defer svcs[i].Close()
	}
	// factorRuns sums the numeric factorizations the shards executed;
	// cache hits leave it unchanged.
	factorRuns := func() (runs int64) {
		for _, svc := range svcs {
			runs += svc.Stats().Phases[serve.PhaseFactor.String()].Count
		}
		return runs
	}
	rc.Shards = fleetrpc.LocalShards(svcs...)
	if slowHot > 0 {
		hot := fleet.NewRing(shardIDs(shards), rc.VNodes).Owner(sparse.PatternHash(pool[0].a))
		rc.Shards[hot] = slowShard{rc.Shards[hot], slowHot}
	}
	f, err := fleetrpc.New(rc)
	if err != nil {
		return FleetLoadResult{}, err
	}
	defer f.Close()
	ctx := context.Background()
	if err := warm(ctx, fleetTarget(f), pool); err != nil {
		return FleetLoadResult{}, err
	}
	r := FleetLoadResult{ShardCount: shards, FactorRunsWarm: factorRuns()}
	if drain {
		l.faultAt = l.window / 2
		l.fault = func() {
			if err := f.Drain(ctx, f.Owner(pool[0].h.Key.Pattern)); err != nil {
				r.DrainErr = err.Error()
			}
		}
	}
	r.LoadResult = runLoad(ctx, fleetTarget(f), pool, l)
	f.Close() // waits out the drain's background re-replication
	r.FactorRunsFinal = factorRuns()
	r.Stats = f.Stats()
	return r, nil
}

// FleetAblationResult holds the three fleet studies: shard scaling
// under cache pressure, hedging against a straggler, and a mid-run
// drain.
type FleetAblationResult struct {
	Scaling []FleetLoadResult // 1, 2, 4 shards, same aggregate load
	Hedging []FleetLoadResult // straggler without, then with hedging
	Drain   FleetLoadResult
}

// FleetAblation runs the three studies with a shared worker count,
// duration and scale.
//
// Scaling arms fix the per-shard factor-cache capacity so that four
// shards hold the whole Zipf pool warm while one shard thrashes — the
// single-node cache ceiling the fleet exists to break. Hedging arms
// straggler one shard and compare tails with hedging off and on. The
// drain arm removes the hottest pattern's home shard mid-run and
// checks nothing failed.
func FleetAblation(workers int, duration time.Duration, scale float64) (*FleetAblationResult, error) {
	svc := serve.DefaultConfig()
	svc.Options.Refine = false
	peak := load{workers: workers, window: duration, zipfS: 1.2, diurnal: true}
	res := &FleetAblationResult{}
	// The scaling pool: patterns picked so the 4-shard ring owns them
	// 2-per-shard, a flatter Zipf so the tail matters, and a per-shard
	// factor cache of pool/4 entries.
	scalingNames := balancedFleetPatterns(scale, 4, 2)
	for _, shards := range []int{1, 2, 4} {
		pool := buildPool(scalingNames, 3, scale)
		cfg := svc
		cfg.MaxFactors = len(pool) / 4
		l := peak
		l.zipfS = 1.07
		// Replication 1 isolates the cache-capacity effect.
		r, err := fleetArm(pool, shards, cfg, fleetrpc.Config{Replication: 1}, 0, false, l)
		if err != nil {
			return nil, err
		}
		r.Label = fmt.Sprintf("%d-shard", shards)
		res.Scaling = append(res.Scaling, r)
	}

	for _, label := range []string{"straggler", "straggler+hedge"} {
		pool := buildPool(loadPatterns[:6], 4, scale)
		l := peak
		l.diurnal = false              // steady peak load; the tail is the subject
		l.think = 3 * time.Millisecond // same offered load in both arms
		rc := fleetrpc.Config{Replication: 2}
		if label == "straggler+hedge" {
			// Above what a healthy solve takes here, well below the 10ms
			// straggle: only requests stuck on the slow shard race a replica.
			rc.HedgeAfter = 2 * time.Millisecond
		}
		r, err := fleetArm(pool, 4, svc, rc, 10*time.Millisecond, false, l)
		if err != nil {
			return nil, err
		}
		r.Label = label
		res.Hedging = append(res.Hedging, r)
	}

	var err error
	if res.Drain, err = fleetArm(buildPool(loadPatterns[:6], 4, scale), 4, svc, fleetrpc.Config{Replication: 1}, 0, true, peak); err != nil {
		return nil, err
	}
	res.Drain.Label = "drain-mid-run"
	return res, nil
}

// balancedFleetPatterns picks perShard testbed patterns per ring owner
// under a shards-wide ring, so the scaling arms' pool spreads evenly
// and shard count maps onto aggregate cache capacity rather than onto
// hash luck. Candidates are taken largest-first: the bigger the
// matrix, the bigger the refactorization penalty a cache miss pays,
// which is exactly the cost the shard-scaling study measures. Falls
// back to unpicked candidates when the testbed can't fill a shard's
// bucket.
func balancedFleetPatterns(scale float64, shards, perShard int) []string {
	ring := fleet.NewRing(shardIDs(shards), 0)
	type candidate struct {
		name  string
		rows  int
		owner int
	}
	var cands []candidate
	for _, name := range loadPatterns {
		a := loadMatrix(name, scale)
		cands = append(cands, candidate{name, a.Rows, ring.Owner(sparse.PatternHash(a))})
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].rows > cands[j].rows })

	buckets := make(map[int]int, shards)
	picked := make([]string, 0, shards*perShard)
	taken := make(map[string]bool, len(cands))
	for _, c := range cands {
		if len(picked) == shards*perShard {
			break
		}
		if buckets[c.owner] < perShard {
			buckets[c.owner]++
			picked = append(picked, c.name)
			taken[c.name] = true
		}
	}
	for _, c := range cands {
		if len(picked) == shards*perShard {
			break
		}
		if !taken[c.name] {
			picked = append(picked, c.name)
		}
	}
	return picked
}

func shardIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// FormatFleet lays out the fleet ablation: the scaling and hedging
// tables, the drain verdict, then the fleet counters of the scaling
// and drain arms. The drain claim — no failed request, which
// TestFleetDrainZeroFailure also asserts — sets Fail when broken; the
// factor runs are printed as information only.
func FormatFleet(res *FleetAblationResult) []Table {
	// The columns and cells both tables share, then each table's own.
	cols := func(more ...Col) []Col {
		return append([]Col{{"arm", -16, ""}, {"shards", 7, ""}, {"workers", 8, ""}, {"solves/s", 10, "%.0f"},
			{"p50", 10, ""}, {"p99", 10, ""}, {"p999", 10, ""}, {"heal", 8, "%.1f%%"}}, more...)
	}
	cells := func(r FleetLoadResult, more ...any) []any {
		return append([]any{r.Label, r.ShardCount, r.Workers, r.Throughput,
			fmtDur(r.P50), fmtDur(r.P99), fmtDur(r.P999), 100 * r.Stats.HealRate()}, more...)
	}
	base := res.Scaling[0]
	scaling := tabulate(res.Scaling, func(r FleetLoadResult) []any {
		ratio := "-"
		if base.Throughput > 0 && r.ShardCount != base.ShardCount {
			ratio = fmt.Sprintf("%.2fx", r.Throughput/base.Throughput)
		}
		return cells(r, r.Shed, r.Failed, ratio)
	}, cols(Col{"shed", 6, ""}, Col{"fail", 6, ""}, Col{"vs-1shd", 8, ""}),
		"Fleet shard scaling (Zipf load, per-shard cache = pool/4; cache capacity is the bottleneck):")
	hedging := tabulate(res.Hedging, func(r FleetLoadResult) []any {
		return cells(r, 100*r.Stats.HedgeRate(), r.Stats.HedgeWins)
	}, cols(Col{"hedge", 9, "%.1f%%"}, Col{"wins", 8, ""}),
		"Hedged solves vs one straggler shard (10ms injected delay on the hot pattern's home):")
	d := res.Drain
	drain := Table{Title: []string{"Graceful drain mid-run (hottest pattern's home shard leaves under load):"}}
	switch {
	case d.DrainErr != "":
		drain.Fail = "DRAIN ERROR: " + d.DrainErr
	case d.Failed > 0:
		drain.Fail = "FAILED REQUESTS: drain must be lossless"
	}
	drain.Verdict = []string{
		fmt.Sprintf("  solves %d  failed %d  shed %d  factor-runs warm/final %d/%d  re-replicated %d",
			d.Solves, d.Failed, d.Shed, d.FactorRunsWarm, d.FactorRunsFinal, d.Stats.Rereplicated),
		"  " + cmp.Or(drain.Fail, "zero failed requests: the drain lost no request"),
		"  zero refactorizations is no longer asserted: the leaver's entries re-factor from the registry",
	}
	ts := []Table{scaling, hedging, drain}
	for _, r := range res.Scaling {
		ts = append(ts, counters(r.Label, "fleet", r.Stats))
	}
	return append(ts, counters(d.Label, "fleet", d.Stats))
}
