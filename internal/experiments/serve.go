package experiments

import (
	"context"
	"fmt"
	"time"

	"gesp/internal/core"
	"gesp/internal/matgen"
	"gesp/internal/serve"
)

// The serving experiment: closed-loop clients hammer the solve service
// with a pool of systems spanning several sparsity patterns, several
// value variants per pattern. It measures what the serving layer is
// for — solve throughput and latency once analysis and factors are
// cached — and the ablation compares batched multi-RHS sweeps against
// the same service with batching disabled.

// ServeLoadResult is one arm of the serving study.
type ServeLoadResult struct {
	Label string
	LoadResult
	MeanBatch float64 // solves per batched sweep
	Stats     serve.Stats
}

// ServeLoad runs one serving arm: a service configured by cfg, warmed
// with a tight pool (2 patterns × 2 variants, so closed-loop clients
// concentrate on few factors: batching needs concurrent demand per
// factor to coalesce anything), then clients closed-loop clients for
// window, each resubmitting its system before 5 % of its solves. Any
// failed request fails the run.
func ServeLoad(cfg serve.Config, clients int, window time.Duration, scale float64) (*ServeLoadResult, error) {
	pool := buildPool(loadPatterns[:2], 2, scale)
	svc := serve.New(cfg)
	defer svc.Close()
	ctx := context.Background()
	if err := warm(ctx, serviceTarget(svc), pool); err != nil {
		return nil, err
	}
	res := &ServeLoadResult{
		LoadResult: runLoad(ctx, serviceTarget(svc), pool, load{workers: clients, window: window, resubmit: 0.05}),
		Stats:      svc.Stats(),
	}
	if res.Failed > 0 {
		return nil, fmt.Errorf("experiments: %d of %d serve requests failed: %w",
			res.Failed, res.Solves+res.Shed+res.Failed, res.Err)
	}
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
		cfg := serve.DefaultConfig()
		cfg.MaxBatch = mode.maxBatch
		cfg.MaxDelay = mode.maxDelay
		// Refinement off isolates the triangular-sweep batching effect;
		// the correctness tests cover the refined path.
		cfg.Options.Refine = false
		r, err := ServeLoad(cfg, clients, duration, scale)
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
	a := loadMatrix(loadPatterns[0], scale)
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

// FormatServe lays out the serving ablation: the arms, the kernel
// amortization, then each arm's service counters.
func FormatServe(res *ServeAblationResult) []Table {
	rows := res.Rows
	t := Table{
		Title: []string{"Serving-layer throughput/latency (closed loop; factor-cached solves):"},
		Cols: []Col{{"mode", -10, ""}, {"clients", 8, ""}, {"systems", 8, ""}, {"solves/s", 10, "%.0f"},
			{"p50", 10, ""}, {"p95", 10, ""}, {"p99", 10, ""}, {"avgBatch", 9, "%.2f"}, {"shed", 6, ""}, {"vs-unbat", 8, ""}},
		Verdict: []string{fmt.Sprintf("multi-RHS kernel amortization (k=%d, one factor): %.2fx", res.KernelK, res.KernelSpeedup)},
	}
	var stats []Table
	for i, r := range rows {
		ratio := "-"
		if i > 0 && rows[0].Throughput > 0 {
			ratio = fmt.Sprintf("%.2fx", r.Throughput/rows[0].Throughput)
		}
		t.Rows = append(t.Rows, []any{r.Label, r.Workers, r.Systems, r.Throughput,
			fmtDur(r.P50), fmtDur(r.P95), fmtDur(r.P99), r.MeanBatch, r.Shed, ratio})
		stats = append(stats, counters(r.Label, "service", r.Stats))
	}
	return append([]Table{t}, stats...)
}
