// Benchmarks regenerating the paper's tables and figures, one per
// artifact (see DESIGN.md's experiment index). Custom metrics are
// attached via b.ReportMetric so `go test -bench` output carries the
// reproduction headline numbers:
//
//	go test -bench=. -benchmem
//
// The full formatted tables come from `go run ./cmd/gesp-bench`.
package gesp_test

import (
	"fmt"
	"math/rand"
	"time"

	"testing"

	"gesp/internal/core"
	"gesp/internal/dist"
	"gesp/internal/experiments"
	"gesp/internal/faultsim"
	"gesp/internal/lu"
	"gesp/internal/matgen"
	"gesp/internal/resilience"
	"gesp/internal/sched"
	"gesp/internal/serve"
	"gesp/internal/sparse"
	"gesp/internal/zsolver"
	"gesp/internal/zsparse"
)

// benchScale keeps the default `go test -bench` run fast; cmd/gesp-bench
// defaults to larger problems.
const benchScale = 0.25

func BenchmarkTable1Testbed(b *testing.B) {
	// Generation cost of the whole 53-matrix testbed.
	var nnz int
	for i := 0; i < b.N; i++ {
		nnz = 0
		for _, r := range experiments.Table1(benchScale) {
			nnz += r.Nnz
		}
	}
	b.ReportMetric(float64(nnz), "testbed-nnz")
}

func BenchmarkFigure2Characteristics(b *testing.B) {
	// Fill analysis (symbolic factorization) across the testbed.
	m, _ := matgen.Lookup("AF23560")
	a := m.Generate(benchScale)
	b.ResetTimer()
	var fill int
	for i := 0; i < b.N; i++ {
		s, err := core.NewAnalysis(a, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		fill = s.Stats().NnzLU
	}
	b.ReportMetric(float64(fill), "nnz(L+U)")
}

func BenchmarkFigure3Refinement(b *testing.B) {
	m, _ := matgen.Lookup("LHR14C")
	a := m.Generate(benchScale)
	rhs := matgen.OnesRHS(a)
	s, err := core.New(a, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Stats().RefineSteps), "refine-steps")
	b.ReportMetric(s.Stats().Berr, "berr")
}

func BenchmarkFigure4ErrorVsGEPP(b *testing.B) {
	m, _ := matgen.Lookup("MEMPLUS")
	a := m.Generate(benchScale)
	rhs := matgen.OnesRHS(a)
	ones := make([]float64, a.Rows)
	for i := range ones {
		ones[i] = 1
	}
	var eGESP, eGEPP float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.New(a, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		x, err := s.Solve(rhs)
		if err != nil {
			b.Fatal(err)
		}
		eGESP = sparse.RelErrInf(x, ones)
		f, err := lu.GEPP(a)
		if err != nil {
			b.Fatal(err)
		}
		eGEPP = sparse.RelErrInf(f.SolvePerm(rhs), ones)
	}
	b.ReportMetric(eGESP, "err-gesp")
	b.ReportMetric(eGEPP, "err-gepp")
}

func BenchmarkFigure5Berr(b *testing.B) {
	m, _ := matgen.Lookup("TWOTONE")
	a := m.Generate(benchScale)
	rhs := matgen.OnesRHS(a)
	s, err := core.New(a, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Solve(rhs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(s.Stats().Berr, "berr")
}

func BenchmarkFigure6StepCosts(b *testing.B) {
	// Relative cost of the GESP steps on one large-ish matrix.
	m, _ := matgen.Lookup("BBMAT")
	a := m.Generate(benchScale)
	rhs := matgen.OnesRHS(a)
	var st core.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.New(a, core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(rhs); err != nil {
			b.Fatal(err)
		}
		st = s.Stats()
	}
	if ft := st.Times.Factor.Seconds(); ft > 0 {
		b.ReportMetric(st.Times.RowPerm.Seconds()/ft, "rowperm/factor")
		b.ReportMetric(st.Times.Solve.Seconds()/ft, "solve/factor")
	}
}

func BenchmarkTable2Characteristics(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2(benchScale)
	}
	if len(rows) > 0 {
		b.ReportMetric(rows[0].StrSym, "strsym-af23560")
	}
}

func benchDistFactor(b *testing.B, name string, procs int) {
	m, _ := matgen.Lookup(name)
	a := m.Generate(benchScale)
	s, err := core.NewAnalysis(a, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rhs := matgen.OnesRHS(a)
	var res *dist.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res, err = s.DistSolve(rhs, dist.Options{
			Procs: procs, Pipeline: true, EDAGPrune: true, ReplaceTinyPivot: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Factor.SimTime*1000, "factor-sim-ms")
	b.ReportMetric(res.Factor.Mflops, "sim-Mflops")
	b.ReportMetric(res.Solve.SimTime*1000, "solve-sim-ms")
	b.ReportMetric(res.Factor.LoadBalance, "B")
	b.ReportMetric(res.Factor.CommFraction, "comm-frac")
}

func BenchmarkTable3ParallelLU(b *testing.B)    { benchDistFactor(b, "WANG4", 16) }
func BenchmarkTable4ParallelSolve(b *testing.B) { benchDistFactor(b, "EX11", 16) }
func BenchmarkTable5LoadBalance(b *testing.B)   { benchDistFactor(b, "TWOTONE", 16) }

func BenchmarkEDAGPruningAblation(b *testing.B) {
	var r experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.EDAGAblation("AF23560", benchScale, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.BaseMessages-r.OnMessages), "msgs-saved")
}

func BenchmarkPipelineAblation(b *testing.B) {
	var r experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.PipelineAblation("AF23560", benchScale, 16)
		if err != nil {
			b.Fatal(err)
		}
	}
	if r.BaseTime > 0 {
		b.ReportMetric(100*(r.BaseTime-r.OnTime)/r.BaseTime, "speedup-%")
	}
}

func BenchmarkNoPivotFailures(b *testing.B) {
	var failed int
	for i := 0; i < b.N; i++ {
		failed = 0
		for _, r := range experiments.RunNoPivot(benchScale) {
			if r.Failed {
				failed++
			}
		}
	}
	b.ReportMetric(float64(failed), "breakdowns")
}

// Kernel-level benchmarks of the substrates.

func BenchmarkSerialGESPFactor(b *testing.B) {
	m, _ := matgen.Lookup("AF23560")
	a := m.Generate(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.New(a, core.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSerialGEPPFactor(b *testing.B) {
	m, _ := matgen.Lookup("AF23560")
	a := m.Generate(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lu.GEPP(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMC64Matching(b *testing.B) {
	m, _ := matgen.Lookup("TWOTONE")
	a := m.Generate(benchScale)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.NewAnalysis(a, core.Options{RowPermute: true, ColScale: true})
		if err != nil {
			b.Fatal(err)
		}
		_ = s
	}
}

// Extension benchmarks (paper §5 future-work features).

func BenchmarkDenseTailSwitch(b *testing.B) {
	// Compare plain sparse factorization against the dense-tail switch on
	// a matrix with a genuinely dense trailing block.
	m, _ := matgen.Lookup("PSMIGR_1")
	a := m.Generate(benchScale)
	s, err := core.NewAnalysis(a, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ap, sym := s.PermutedMatrix(), s.Symbolic()
	b.ResetTimer()
	var tail int
	for i := 0; i < b.N; i++ {
		_, tail, err = lu.FactorizeDenseTail(ap, sym, lu.Options{ReplaceTinyPivot: true}, 0.5)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sym.N-tail), "dense-tail-cols")
}

func BenchmarkILUGMRESWithMC64(b *testing.B) {
	var rows []experiments.IterativeRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.IterativeAblation([]string{"GEMAT11"}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(float64(rows[0].MC64Iters), "gmres-iters-mc64")
	}
}

func BenchmarkDistTriangularSolveOnly(b *testing.B) {
	// Table 4's kernel in isolation: message-driven solves at P=16.
	m, _ := matgen.Lookup("MEMPLUS")
	a := m.Generate(benchScale)
	s, err := core.NewAnalysis(a, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rhs := matgen.OnesRHS(a)
	var res *dist.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res, err = s.DistSolve(rhs, dist.Options{Procs: 16, Pipeline: true, EDAGPrune: true, ReplaceTinyPivot: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Solve.SimTime*1000, "solve-sim-ms")
	b.ReportMetric(res.Solve.CommFraction, "solve-comm-frac")
}

func BenchmarkComplexQuantumChem(b *testing.B) {
	// The paper's §4 application workload: complex unsymmetric
	// Green's-function system via the complex GESP pipeline.
	rng := rand.New(rand.NewSource(1998))
	a := zsparse.QuantumChem(8, 8, 6, complex(0.7, 0.9), rng)
	want := make([]complex128, a.Rows)
	for i := range want {
		want[i] = complex(1, -1)
	}
	rhs := make([]complex128, a.Rows)
	a.MatVec(rhs, want)
	b.ResetTimer()
	var berr float64
	for i := 0; i < b.N; i++ {
		s, err := zsolver.New(a, zsolver.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(rhs); err != nil {
			b.Fatal(err)
		}
		berr = s.Stats().Berr
	}
	b.ReportMetric(berr, "berr")
}

func BenchmarkParallelFactorSpeedup(b *testing.B) {
	// The DAG-scheduled shared-memory engine vs the serial blocked engine
	// on the largest testbed matrix, sweeping worker counts. The
	// speedup-vs-serial metric is wall-clock of dist.FactorizeBlocked
	// divided by wall-clock of sched.Factorize; on a
	// single-core machine it degenerates to the scheduler's overhead
	// ratio.
	m, _ := matgen.Lookup("BBMAT")
	a := m.Generate(benchScale)
	s, err := core.NewAnalysis(a, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ap, sym := s.PermutedMatrix(), s.Symbolic()
	opts := lu.Options{ReplaceTinyPivot: true}

	// Serial blocked baseline: best of three.
	serialNs := int64(0)
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		if _, _, err := dist.FactorizeBlocked(ap, sym, opts); err != nil {
			b.Fatal(err)
		}
		if ns := time.Since(t0).Nanoseconds(); serialNs == 0 || ns < serialNs {
			serialNs = ns
		}
	}
	b.ReportMetric(float64(serialNs)/1e6, "serial-blocked-ms")

	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := sched.Factorize(ap, sym, opts, w); err != nil {
					b.Fatal(err)
				}
			}
			perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(serialNs)/perOp, "speedup-vs-serial")
			}
		})
	}
}

func BenchmarkServeThroughput(b *testing.B) {
	// The serving-layer closed loop: 8 clients hammering factor-cached
	// solves through the RHS batcher. Each iteration is one fixed-length
	// measurement window, so the headline metric is solves/s rather than
	// ns/op. Refinement off to isolate the batched triangular sweeps.
	cfg := serve.DefaultConfig()
	cfg.MaxDelay = 0 // rely on natural backlog coalescing, not timers
	cfg.Options.Refine = false
	var last *experiments.ServeLoadResult
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunServeLoad(experiments.ServeLoadConfig{
			Service:  cfg,
			Clients:  8,
			Patterns: 2,
			Variants: 3,
			Duration: 200 * time.Millisecond,
			Scale:    benchScale,
			Resubmit: 0.05,
		})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		b.ReportMetric(last.Throughput, "solves/s")
		b.ReportMetric(last.MeanBatch, "mean-batch")
		b.ReportMetric(serve.HitRate(last.Stats.FactorHits, last.Stats.FactorMisses), "factor-hit-rate")
	}
}

func BenchmarkSupernodalVsColumnFactor(b *testing.B) {
	// The SuperLU-style blocked engine vs the scalar column kernel on the
	// same static structure (the paper's uniprocessor-performance theme).
	m, _ := matgen.Lookup("EX11")
	a := m.Generate(benchScale)
	s, err := core.NewAnalysis(a, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	ap, sym := s.PermutedMatrix(), s.Symbolic()
	b.Run("column", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := lu.Factorize(ap, sym, lu.Options{ReplaceTinyPivot: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("supernodal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := dist.FactorizeBlocked(ap, sym, lu.Options{ReplaceTinyPivot: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkResilienceLadder(b *testing.B) {
	// The resilience ladder's two cost regimes: the guarded happy path
	// (rung 0, must be indistinguishable from plain solve+refine) and a
	// full escalation to the GEPP refactorization rung. The gap between
	// the two is the price of the safety contract when it actually fires.
	m, _ := matgen.Lookup("SHERMAN4")
	a := m.Generate(benchScale)
	want := make([]float64, a.Rows)
	for i := range want {
		want[i] = 1
	}
	rhs := make([]float64, a.Rows)
	a.MatVec(rhs, want)

	opts := core.DefaultOptions()
	opts.Resilience = &resilience.Policy{}
	b.Run("rung0", func(b *testing.B) {
		s, err := core.New(a, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(rhs); err != nil {
				b.Fatal(err)
			}
		}
		st := s.Stats()
		b.ReportMetric(float64(st.Escalations), "escalations")
	})
	b.Run("escalate-gepp", func(b *testing.B) {
		inj := faultsim.New(1)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			s, err := core.New(a, opts)
			if err != nil {
				b.Fatal(err)
			}
			inj.CorruptFactors(s.Factors(), 3)
			b.StartTimer()
			if _, err := s.Solve(rhs); err != nil {
				b.Fatal(err)
			}
		}
	})
}
