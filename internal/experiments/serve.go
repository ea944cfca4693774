package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"gesp/internal/core"
	"gesp/internal/matgen"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

// The serving experiment: closed-loop clients hammer the solve service
// with a pool of systems spanning several sparsity patterns, several
// value variants per pattern. It measures what the serving layer is
// for — solve throughput and latency once analysis and factors are
// cached — and the ablation compares batched multi-RHS sweeps against
// the same service with batching disabled.

// serveLoadPatterns are the testbed patterns the load generator cycles
// through, smallest-first so default runs stay quick.
var serveLoadPatterns = []string{
	"SHERMAN4", "GEMAT11", "WEST2021", "ORSIRR_1", "JPWH_991",
	"PORES_2", "SHERMAN3", "ADD32", "MEMPLUS", "SAYLR4",
}

// ServeLoadConfig parameterizes one closed-loop run.
type ServeLoadConfig struct {
	Service  serve.Config
	Clients  int
	Patterns int // distinct sparsity patterns in the pool
	Variants int // value variants per pattern (pattern-cache workload)
	Duration time.Duration
	Scale    float64
	// Resubmit is the per-request probability (in [0,1]) that a client
	// resubmits its system before solving, exercising the factor-cache
	// hit path under load.
	Resubmit float64
}

// ServeLoadResult is one run's measurement.
type ServeLoadResult struct {
	Label         string
	Clients       int
	Systems       int
	Solves        uint64
	Shed          uint64
	Elapsed       time.Duration
	Throughput    float64 // solves per second
	P50, P95, P99 time.Duration
	MeanBatch     float64 // solves per batched sweep
	Stats         serve.Stats
}

// poolSystem is one system of a load driver's pool: matrix, all-ones
// right-hand side, and the handle its warm submit returned.
type poolSystem struct {
	label string // "MATRIX/variant", for error messages
	a     *sparse.CSC
	b     []float64
	h     serve.Handle
}

// buildPool generates the pattern×variant system pool every load
// driver draws from, pattern-major: per named testbed matrix the base
// system, then variants-1 copies of its pattern with values perturbed by
// 1+0.1·N(0,1) (seeded seed+1000·pattern+variant, so a pool is
// reproducible and drivers sharing a seed share systems).
func buildPool(names []string, variants int, scale float64, seed int64) ([]poolSystem, error) {
	var pool []poolSystem
	for p, name := range names {
		m, ok := matgen.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("experiments: testbed matrix %s missing", name)
		}
		base := m.Generate(scale)
		for v := 0; v < variants; v++ {
			a := base
			if v > 0 {
				rng := rand.New(rand.NewSource(seed + int64(1000*p+v)))
				a = base.Clone()
				for k := range a.Val {
					a.Val[k] *= 1 + 0.1*rng.NormFloat64()
				}
			}
			pool = append(pool, poolSystem{label: fmt.Sprintf("%s/%d", name, v), a: a, b: matgen.OnesRHS(a)})
		}
	}
	return pool, nil
}

// percentile returns the p-quantile of ascending latencies by the
// drivers' shared convention (index ⌊p·(n-1)⌋; 0 with no samples).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// RunServeLoad builds the system pool, submits every system once to warm
// the caches, then runs Clients closed-loop clients for Duration and
// reports throughput, latency percentiles and the service counters.
func RunServeLoad(cfg ServeLoadConfig) (*ServeLoadResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 8
	}
	if cfg.Patterns <= 0 {
		cfg.Patterns = 3
	}
	if cfg.Patterns > len(serveLoadPatterns) {
		cfg.Patterns = len(serveLoadPatterns)
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

	systems, err := buildPool(serveLoadPatterns[:cfg.Patterns], cfg.Variants, cfg.Scale, 0)
	if err != nil {
		return nil, err
	}

	svc := serve.New(cfg.Service)
	defer svc.Close()
	for i := range systems {
		h, err := svc.Submit(systems[i].a)
		if err != nil {
			return nil, fmt.Errorf("experiments: warm submit %d: %w", i, err)
		}
		systems[i].h = h
	}

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		solves    uint64
		shed      uint64
		firstErr  error
	)
	deadline := time.Now().Add(cfg.Duration)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(7777 + c)))
			var local []time.Duration
			var mySolves, myShed uint64
			for time.Now().Before(deadline) {
				sys := &systems[rng.Intn(len(systems))]
				if cfg.Resubmit > 0 && rng.Float64() < cfg.Resubmit {
					if _, err := svc.Submit(sys.a); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
				}
				t0 := time.Now()
				_, err := svc.Solve(sys.h, sys.b)
				switch {
				case err == nil:
					local = append(local, time.Since(t0))
					mySolves++
				case errors.Is(err, serve.ErrOverloaded):
					myShed++
				default:
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			latencies = append(latencies, local...)
			solves += mySolves
			shed += myShed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	res := &ServeLoadResult{
		Clients:    cfg.Clients,
		Systems:    len(systems),
		Solves:     solves,
		Shed:       shed,
		Elapsed:    cfg.Duration,
		Stats:      svc.Stats(),
		Throughput: float64(solves) / cfg.Duration.Seconds(),
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50, res.P95, res.P99 = percentile(latencies, 0.50), percentile(latencies, 0.95), percentile(latencies, 0.99)
	if res.Stats.Batches > 0 {
		res.MeanBatch = float64(res.Stats.Solves) / float64(res.Stats.Batches)
	}
	return res, nil
}

// ServeAblationResult holds the batching ablation: the closed-loop
// arms plus a direct measurement of the multi-RHS kernel amortization
// the batcher exploits.
type ServeAblationResult struct {
	Rows []ServeLoadResult
	// KernelK and KernelSpeedup measure the batching ceiling on one
	// cached factor: time of KernelK single-RHS solves divided by the
	// time of one KernelK-wide SolveBatch. Independent of admission
	// policy and host parallelism.
	KernelK       int
	KernelSpeedup float64
}

// ServeAblation runs the closed-loop load under three admission
// policies — batching off, batching by natural backlog only, and
// batching with the default delay window — holding the client count,
// system pool and duration fixed, and separately measures the
// multi-RHS kernel amortization.
func ServeAblation(clients int, duration time.Duration, scale float64) (*ServeAblationResult, error) {
	// A tight pool (4 systems) so closed-loop clients concentrate on
	// few factors: batching needs concurrent demand per factor
	// (clients/systems > 1) to coalesce anything. The load generator
	// (RunServeLoad directly) covers wide mixed-pattern pools.
	base := ServeLoadConfig{
		Clients:  clients,
		Patterns: 2,
		Variants: 2,
		Duration: duration,
		Scale:    scale,
		Resubmit: 0.05,
	}

	res := &ServeAblationResult{}
	for _, mode := range []struct {
		label    string
		maxBatch int
		maxDelay time.Duration
	}{
		// "backlog" cuts as soon as a sweep finishes, so only requests
		// that arrived during the previous sweep coalesce — free
		// batching on a multi-core host, degenerates to singletons on
		// one core (a CPU-bound sweep leaves clients no cycles to
		// enqueue). "delay" additionally holds each sweep up to the
		// service's default MaxDelay: batches form on any host, at the
		// cost of the timer wait showing up in latency (and, on one
		// core, in throughput).
		{"unbatched", 1, 0},
		{"backlog", 16, 0},
		{"delay", 16, serve.DefaultConfig().MaxDelay},
	} {
		cfg := base
		cfg.Service = serve.DefaultConfig()
		cfg.Service.MaxBatch = mode.maxBatch
		cfg.Service.MaxDelay = mode.maxDelay
		// Refinement off isolates the triangular-sweep batching effect;
		// the correctness tests cover the refined path.
		cfg.Service.Options.Refine = false
		r, err := RunServeLoad(cfg)
		if err != nil {
			return nil, err
		}
		r.Label = mode.label
		res.Rows = append(res.Rows, *r)
	}

	var err error
	res.KernelK = 16
	res.KernelSpeedup, err = serveKernelAmortization(scale, res.KernelK)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// serveKernelAmortization measures, on one factorized system, the best
// of several repetitions of k single-RHS solves against one k-wide
// batched solve — the per-request saving the RHS batcher is built on.
func serveKernelAmortization(scale float64, k int) (float64, error) {
	m, ok := matgen.Lookup(serveLoadPatterns[0])
	if !ok {
		return 0, fmt.Errorf("experiments: testbed matrix %s missing", serveLoadPatterns[0])
	}
	a := m.Generate(scale)
	opts := core.DefaultOptions()
	opts.Refine = false
	s, err := core.New(a, opts)
	if err != nil {
		return 0, err
	}
	b := matgen.OnesRHS(a)
	bs := make([][]float64, k)
	for i := range bs {
		bs[i] = b
	}
	single, multi := time.Duration(0), time.Duration(0)
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := 0; i < k; i++ {
			if _, err := s.Solve(b); err != nil {
				return 0, err
			}
		}
		if d := time.Since(t0); rep == 0 || d < single {
			single = d
		}
		t0 = time.Now()
		if _, err := s.SolveBatch(bs); err != nil {
			return 0, err
		}
		if d := time.Since(t0); rep == 0 || d < multi {
			multi = d
		}
	}
	if multi <= 0 {
		return 0, nil
	}
	return float64(single) / float64(multi), nil
}

// PrintServe formats the serving ablation like the repo's other
// experiment tables.
//
//gesp:errok
func PrintServe(w io.Writer, res *ServeAblationResult) {
	rows := res.Rows
	fmt.Fprintln(w, "Serving-layer throughput/latency (closed loop; factor-cached solves):")
	fmt.Fprintf(w, "%-10s %8s %8s %10s %10s %10s %10s %9s %6s %8s\n",
		"mode", "clients", "systems", "solves/s", "p50", "p95", "p99", "avgBatch", "shed", "vs-unbat")
	for i, r := range rows {
		ratio := "-"
		if i > 0 && rows[0].Throughput > 0 {
			ratio = fmt.Sprintf("%.2fx", r.Throughput/rows[0].Throughput)
		}
		fmt.Fprintf(w, "%-10s %8d %8d %10.0f %10s %10s %10s %9.2f %6d %8s\n",
			r.Label, r.Clients, r.Systems, r.Throughput,
			fmtDur(r.P50), fmtDur(r.P95), fmtDur(r.P99), r.MeanBatch, r.Shed, ratio)
	}
	fmt.Fprintf(w, "multi-RHS kernel amortization (k=%d, one factor): %.2fx\n",
		res.KernelK, res.KernelSpeedup)
	for _, r := range rows {
		fmt.Fprintf(w, "\n[%s] service counters:\n%s", r.Label, indent(r.Stats.String(), "  "))
	}
}

func fmtDur(d time.Duration) string {
	return d.Round(time.Microsecond).String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = prefix + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
