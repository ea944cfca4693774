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

	"gesp/internal/fleet"
	"gesp/internal/fleetrpc"
	"gesp/internal/matgen"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

// The fleet experiment: a closed-loop, Zipf-skewed, diurnally bursty
// load generator over the sharded solve fleet. It measures what the
// fleet layer is for — how throughput scales with shards when the
// per-shard factor cache is the bottleneck, what hedging does to the
// tail when one shard straggles, and whether a mid-run drain loses
// requests or refactors anything.

// FleetLoadConfig parameterizes one closed-loop run over Shards
// in-process shards (each a serve.Service configured by Service) behind
// one router configured by Router, whose Shards are filled in here.
type FleetLoadConfig struct {
	Shards  int
	Service serve.Config
	Router  fleetrpc.Config
	// SlowHot delays every solve on the most popular pattern's home
	// shard — the straggler, placed where it sits in the hot path.
	SlowHot  time.Duration
	Workers  int // peak closed-loop workers
	Patterns int
	// PatternNames pins the exact testbed patterns (overrides Patterns
	// when non-empty) — the scaling arms use it to pick a pool whose
	// ring owners are balanced, so shard count maps cleanly onto
	// aggregate cache capacity.
	PatternNames []string
	Variants     int
	Duration     time.Duration
	Scale        float64
	// ZipfS is the Zipf skew (>1); popular systems dominate, which is
	// what makes per-shard caches and replication matter.
	ZipfS float64
	// Diurnal modulates the active worker count through burst phases
	// (half load, peak, trough, peak) across the run.
	Diurnal bool
	// DrainMid, when true, drains the hottest pattern's home shard at
	// the midpoint of the run.
	DrainMid bool
	// ThinkTime is the per-worker pause between requests. Non-zero
	// decouples offered load from service latency, so a closed loop
	// doesn't reward a faster arm with proportionally more traffic —
	// the hedging arms use it to compare tails at similar arrival
	// rates.
	ThinkTime time.Duration
	Seed      int64
}

// FleetLoadResult is one run's measurement.
type FleetLoadResult struct {
	Label           string
	ShardCount      int
	Workers         int
	Systems         int
	Solves          uint64
	Shed            uint64
	Failed          uint64
	Throughput      float64 // solves per second
	P50, P99, P999  time.Duration
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

// fleetLoadPatterns is the testbed slice the fleet pool draws from,
// smallest first. It is wide on purpose: balancedFleetPatterns needs
// candidates whose PatternHash lands on every ring owner, and which
// fingerprint falls where is hash luck.
var fleetLoadPatterns = []string{
	"SHERMAN4", "GEMAT11", "WEST2021", "ORSIRR_1", "JPWH_991",
	"PORES_2", "SHERMAN3", "ADD32", "MEMPLUS", "SAYLR4",
	"GOODWIN", "GRAHAM1", "TOLS4000", "INACCURA", "MHD4800A",
	"WANG4", "LHR01", "RADFR1", "RAEFSKY4", "FIDAPM11",
	"MCFE", "SHERMAN5", "BBMAT", "TWOTONE", "VENKAT01",
	"LHR34C", "AF23560", "RDIST2", "ONETONE1", "SHYY161",
	"ECL32", "RDIST1",
}

// diurnalPhases is the active-worker fraction per quarter of the run:
// ramp, peak, trough, peak — the bursty shape a real tenant mix has.
var diurnalPhases = [4]float64{0.5, 1.0, 0.25, 1.0}

// RunFleetLoad builds the system pool, warms the fleet (every system
// submitted and solved once), then runs the closed-loop Zipf load for
// Duration and snapshots everything.
func RunFleetLoad(cfg FleetLoadConfig) (*FleetLoadResult, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Patterns <= 0 {
		cfg.Patterns = 6
	}
	if cfg.Patterns > len(fleetLoadPatterns) {
		cfg.Patterns = len(fleetLoadPatterns)
	}
	if cfg.Variants <= 0 {
		cfg.Variants = 4
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.3
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = 1.2
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}

	names := cfg.PatternNames
	if len(names) == 0 {
		names = fleetLoadPatterns[:cfg.Patterns]
	}

	pool, err := buildPool(names, cfg.Variants, cfg.Scale, cfg.Seed)
	if err != nil {
		return nil, err
	}

	svcs := make([]*serve.Service, cfg.Shards)
	for i := range svcs {
		svcs[i] = serve.New(cfg.Service)
		defer svcs[i].Close()
	}
	// factorRuns sums the numeric factorizations the shards executed.
	// Handoffs and cache hits leave it unchanged: the drain arm's proof.
	factorRuns := func() (runs int64) {
		for _, svc := range svcs {
			runs += svc.Stats().Phases[serve.PhaseFactor.String()].Count
		}
		return runs
	}
	cfg.Router.Shards = fleetrpc.LocalShards(svcs...)
	if cfg.SlowHot > 0 {
		hot := fleet.NewRing(shardIDs(cfg.Shards), cfg.Router.VNodes).Owner(sparse.PatternHash(pool[0].a))
		cfg.Router.Shards[hot] = slowShard{cfg.Router.Shards[hot], cfg.SlowHot}
	}
	f, err := fleetrpc.New(cfg.Router)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ctx := context.Background()
	// A submit factors on the replicas too when the arm replicates, so
	// none of that lands inside the measurement window.
	for i := range pool {
		h, err := f.Submit(ctx, fleetrpc.WireMatrix(pool[i].a))
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet warm submit %d: %w", i, err)
		}
		pool[i].h = h
		if _, err := f.Solve(ctx, h, pool[i].b); err != nil {
			return nil, fmt.Errorf("experiments: fleet warm solve %d: %w", i, err)
		}
	}
	runsWarm := factorRuns()

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		solves    uint64
		shed      uint64
		failed    uint64
	)
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	activeFrac := func() float64 {
		if !cfg.Diurnal {
			return 1
		}
		q := int(4 * time.Since(start) / cfg.Duration)
		if q > 3 {
			q = 3
		}
		return diurnalPhases[q]
	}
	for wkr := 0; wkr < cfg.Workers; wkr++ {
		wg.Add(1)
		go func(wkr int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(7000+wkr)))
			zipf := rand.NewZipf(rng, cfg.ZipfS, 1, uint64(len(pool)-1))
			var local []time.Duration
			var mySolves, myShed, myFailed uint64
			for time.Now().Before(deadline) {
				if float64(wkr) >= activeFrac()*float64(cfg.Workers) {
					time.Sleep(200 * time.Microsecond) // off-shift worker
					continue
				}
				e := &pool[zipf.Uint64()]
				t0 := time.Now()
				_, err := f.Solve(ctx, e.h, e.b)
				switch {
				case err == nil:
					local = append(local, time.Since(t0))
					mySolves++
				case errors.Is(err, serve.ErrOverloaded):
					myShed++
				default:
					myFailed++
				}
				if cfg.ThinkTime > 0 {
					time.Sleep(cfg.ThinkTime)
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			solves += mySolves
			shed += myShed
			failed += myFailed
			mu.Unlock()
		}(wkr)
	}

	res := &FleetLoadResult{
		ShardCount: cfg.Shards,
		Workers:    cfg.Workers,
		Systems:    len(pool),
	}
	if cfg.DrainMid {
		time.Sleep(cfg.Duration / 2)
		if err := f.Drain(ctx, f.Owner(pool[0].h.Key.Pattern)); err != nil {
			res.DrainErr = err.Error()
		}
	}
	wg.Wait()

	f.Close() // waits out the drain's background re-replication
	st := f.Stats()
	res.Solves = solves
	res.Shed = shed
	res.Failed = failed
	res.Throughput = float64(solves) / cfg.Duration.Seconds()
	res.FactorRunsWarm = runsWarm
	res.FactorRunsFinal = factorRuns()
	res.Stats = st
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50, res.P99, res.P999 = percentile(latencies, 0.50), percentile(latencies, 0.99), percentile(latencies, 0.999)
	return res, nil
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
// checks nothing failed and nothing refactored.
func FleetAblation(workers int, duration time.Duration, scale float64) (*FleetAblationResult, error) {
	base := FleetLoadConfig{
		Service:  serve.DefaultConfig(),
		Workers:  workers,
		Patterns: 6,
		Variants: 4,
		Duration: duration,
		Scale:    scale,
		Diurnal:  true,
	}
	base.Service.Options.Refine = false
	res := &FleetAblationResult{}
	// The scaling pool: patterns picked so the 4-shard ring owns them
	// 2-per-shard, a flatter Zipf so the tail matters, and a per-shard
	// factor cache of pool/4 entries.
	scalingNames := balancedFleetPatterns(scale, 4, 2)
	scalingPool := len(scalingNames) * 3
	for _, shards := range []int{1, 2, 4} {
		cfg := base
		cfg.PatternNames = scalingNames
		cfg.Variants = 3
		cfg.ZipfS = 1.07
		cfg.Shards = shards
		cfg.Router.Replication = 1 // isolate the cache-capacity effect
		cfg.Service.MaxFactors = scalingPool / 4
		r, err := RunFleetLoad(cfg)
		if err != nil {
			return nil, err
		}
		r.Label = fmt.Sprintf("%d-shard", shards)
		res.Scaling = append(res.Scaling, *r)
	}

	for _, hedge := range []bool{false, true} {
		cfg := base
		cfg.Diurnal = false                  // steady peak load; the tail is the subject
		cfg.ThinkTime = 3 * time.Millisecond // same offered load in both arms
		cfg.Shards = 4
		cfg.Router.Replication = 2
		if hedge {
			// Above what a healthy solve takes here, well below the 10ms
			// straggle: only requests stuck on the slow shard race a replica.
			cfg.Router.HedgeAfter = 2 * time.Millisecond
		}
		cfg.SlowHot = 10 * time.Millisecond
		r, err := RunFleetLoad(cfg)
		if err != nil {
			return nil, err
		}
		r.Label = "straggler"
		if hedge {
			r.Label = "straggler+hedge"
		}
		res.Hedging = append(res.Hedging, *r)
	}

	{
		cfg := base
		cfg.Shards = 4
		cfg.Router.Replication = 1
		cfg.DrainMid = true
		r, err := RunFleetLoad(cfg)
		if err != nil {
			return nil, err
		}
		r.Label = "drain-mid-run"
		res.Drain = *r
	}
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
	for _, name := range fleetLoadPatterns {
		m, ok := matgen.Lookup(name)
		if !ok {
			continue
		}
		a := m.Generate(scale)
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

// PrintFleet formats the fleet ablation like the repo's other
// experiment tables.
//
//gesp:errok
func PrintFleet(w io.Writer, res *FleetAblationResult) {
	fmt.Fprintln(w, "Fleet shard scaling (Zipf load, per-shard cache = pool/4; cache capacity is the bottleneck):")
	fmt.Fprintf(w, "%-16s %7s %8s %10s %10s %10s %10s %8s %6s %6s %8s\n",
		"arm", "shards", "workers", "solves/s", "p50", "p99", "p999", "heal", "shed", "fail", "vs-1shd")
	printFleetRows(w, res.Scaling, true)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Hedged solves vs one straggler shard (10ms injected delay on the hot pattern's home):")
	fmt.Fprintf(w, "%-16s %7s %8s %10s %10s %10s %10s %8s %9s %8s\n",
		"arm", "shards", "workers", "solves/s", "p50", "p99", "p999", "heal", "hedge", "wins")
	for _, r := range res.Hedging {
		fmt.Fprintf(w, "%-16s %7d %8d %10.0f %10s %10s %10s %7.1f%% %8.1f%% %8d\n",
			r.Label, r.ShardCount, r.Workers, r.Throughput,
			fmtDur(r.P50), fmtDur(r.P99), fmtDur(r.P999),
			100*r.Stats.HealRate(), 100*r.Stats.HedgeRate(), r.Stats.HedgeWins)
	}
	fmt.Fprintln(w)
	d := res.Drain
	fmt.Fprintln(w, "Graceful drain mid-run (hottest pattern's home shard leaves under load):")
	fmt.Fprintf(w, "  solves %d  failed %d  shed %d  factor-runs warm/final %d/%d  handed off %d cache entries\n",
		d.Solves, d.Failed, d.Shed, d.FactorRunsWarm, d.FactorRunsFinal, d.Stats.HandedOff)
	switch {
	case d.DrainErr != "":
		fmt.Fprintf(w, "  DRAIN ERROR: %s\n", d.DrainErr)
	case d.Failed > 0:
		fmt.Fprintln(w, "  FAILED REQUESTS: drain must be lossless")
	case d.FactorRunsFinal != d.FactorRunsWarm:
		fmt.Fprintln(w, "  REFACTORED: the handoff must move factors, not rebuild them")
	default:
		fmt.Fprintln(w, "  zero failed requests, zero refactorizations: the caches moved")
	}
	for _, r := range append(append([]FleetLoadResult{}, res.Scaling...), d) {
		fmt.Fprintf(w, "\n[%s] fleet counters:\n%s", r.Label, indent(r.Stats.String(), "  "))
	}
}

// printFleetRows shares PrintFleet's terminal-write error policy.
//
//gesp:errok
func printFleetRows(w io.Writer, rows []FleetLoadResult, ratioCol bool) {
	for _, r := range rows {
		ratio := "-"
		if ratioCol && rows[0].Throughput > 0 && r.ShardCount != rows[0].ShardCount {
			ratio = fmt.Sprintf("%.2fx", r.Throughput/rows[0].Throughput)
		}
		fmt.Fprintf(w, "%-16s %7d %8d %10.0f %10s %10s %10s %7.1f%% %6d %6d %8s\n",
			r.Label, r.ShardCount, r.Workers, r.Throughput,
			fmtDur(r.P50), fmtDur(r.P99), fmtDur(r.P999),
			100*r.Stats.HealRate(), r.Shed, r.Failed, ratio)
	}
}
