package core

import (
	"math"
	"testing"

	"gesp/internal/dist"
	"gesp/internal/lu"
	"gesp/internal/matgen"
	"gesp/internal/ordering"
	"gesp/internal/sparse"
)

const testScale = 0.35

func onesSolution(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

func TestGESPOnFullTestbed(t *testing.T) {
	// The paper's §2.2 experiment: every one of the 53 matrices, b = A·1,
	// GESP must deliver a small error and berr near machine epsilon.
	failures := 0
	for _, m := range matgen.Testbed() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			a := m.Generate(testScale)
			s, err := New(a, DefaultOptions())
			if err != nil {
				t.Fatalf("GESP analysis/factorization failed: %v", err)
			}
			b := matgen.OnesRHS(a)
			x, err := s.Solve(b)
			if err != nil {
				t.Fatal(err)
			}
			relErr := sparse.RelErrInf(x, onesSolution(a.Rows))
			st := s.Stats()
			if st.Berr > 1e-10 {
				t.Errorf("berr = %g, want near eps", st.Berr)
			}
			// The paper's Figure 4 shows errors up to ~1e-4 for the worst
			// conditioned matrices; 2e-3 is the acceptance bar here.
			if relErr > 2e-3 {
				failures++
				t.Errorf("relative error %g", relErr)
			}
		})
	}
}

func TestNoPivotingFailsWhereGESPSucceeds(t *testing.T) {
	// Turn off every stabilization: matrices with zero diagonals must fail
	// outright (the paper: 27 of 53 fail with no pivoting at all).
	bare := Options{Ordering: ordering.Natural, Refine: false, ColScale: false}
	zeroFails := 0
	total := 0
	for _, m := range matgen.Testbed() {
		if !m.ZeroDiag {
			continue
		}
		total++
		a := m.Generate(testScale)
		if _, err := New(a, bare); err != nil {
			zeroFails++
			// And GESP proper must succeed on the same matrix.
			s, err := New(a, DefaultOptions())
			if err != nil {
				t.Errorf("%s: GESP failed too: %v", m.Name, err)
				continue
			}
			b := matgen.OnesRHS(a)
			x, err := s.Solve(b)
			if err != nil {
				t.Errorf("%s: GESP solve failed: %v", m.Name, err)
				continue
			}
			if e := sparse.RelErrInf(x, onesSolution(a.Rows)); e > 2e-3 {
				t.Errorf("%s: GESP error %g", m.Name, e)
			}
		}
	}
	if zeroFails == 0 {
		t.Errorf("no zero-diagonal matrix failed under plain no-pivoting (want most of %d)", total)
	}
	t.Logf("plain no-pivoting failed on %d of %d zero-diagonal matrices", zeroFails, total)
}

func TestGESPMatchesGEPPAccuracy(t *testing.T) {
	// Figure 4's claim: GESP error is at most a little larger than GEPP's
	// and usually comparable. Spot-check a representative subset.
	for _, name := range []string{"AF23560", "MEMPLUS", "LHR14C", "TWOTONE", "PSMIGR_1", "ECL32"} {
		m, ok := matgen.Lookup(name)
		if !ok {
			t.Fatalf("matrix %s missing", name)
		}
		a := m.Generate(testScale)
		want := onesSolution(a.Rows)
		b := matgen.OnesRHS(a)

		s, err := New(a, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: GESP: %v", name, err)
		}
		xs, err := s.Solve(b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		eGESP := sparse.RelErrInf(xs, want)

		fp, err := lu.GEPP(a)
		if err != nil {
			t.Fatalf("%s: GEPP: %v", name, err)
		}
		xp := fp.SolvePerm(b)
		eGEPP := sparse.RelErrInf(xp, want)

		t.Logf("%s: GESP=%.3g GEPP=%.3g", name, eGESP, eGEPP)
		// GESP with refinement should not be much worse than raw GEPP.
		if eGESP > 1e3*eGEPP+1e-10 {
			t.Errorf("%s: GESP error %g vastly worse than GEPP %g", name, eGESP, eGEPP)
		}
	}
}

func TestOptionToggles(t *testing.T) {
	m, _ := matgen.Lookup("AF23560")
	a := m.Generate(0.25)
	b := matgen.OnesRHS(a)
	want := onesSolution(a.Rows)
	configs := []Options{
		DefaultOptions(),
		{Equilibrate: false, RowPermute: true, ColScale: true, Ordering: ordering.MinDegATA, ReplaceTinyPivot: true, Refine: true},
		{Equilibrate: true, RowPermute: false, Ordering: ordering.MinDegAPlusAT, ReplaceTinyPivot: true, Refine: true},
		{Equilibrate: true, RowPermute: true, ColScale: false, Ordering: ordering.MinDegATA, ReplaceTinyPivot: true, Refine: true},
		{Equilibrate: true, RowPermute: true, ColScale: true, Ordering: ordering.RCM, ReplaceTinyPivot: true, Refine: true},
		{Equilibrate: true, RowPermute: true, ColScale: true, Ordering: ordering.MinDegATA, ReplaceTinyPivot: true, Refine: true, ExtraPrecision: true},
		{Equilibrate: true, RowPermute: true, ColScale: true, Ordering: ordering.MinDegATA, ReplaceTinyPivot: true, AggressivePivot: true, Refine: true},
	}
	for i, o := range configs {
		s, err := New(a, o)
		if err != nil {
			t.Errorf("config %d: %v", i, err)
			continue
		}
		x, err := s.Solve(b)
		if err != nil {
			t.Errorf("config %d: %v", i, err)
			continue
		}
		if e := sparse.RelErrInf(x, want); e > 1e-6 {
			t.Errorf("config %d: error %g", i, e)
		}
	}
}

func TestOrderingReducesFill(t *testing.T) {
	m, _ := matgen.Lookup("AF23560")
	a := m.Generate(0.35)
	sMD, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	oNat := DefaultOptions()
	oNat.Ordering = ordering.Natural
	sNat, err := New(a, oNat)
	if err != nil {
		t.Fatal(err)
	}
	if sMD.Stats().NnzLU >= sNat.Stats().NnzLU {
		t.Errorf("minimum degree fill %d not below natural fill %d", sMD.Stats().NnzLU, sNat.Stats().NnzLU)
	}
	t.Logf("fill: MMD(AᵀA)=%d natural=%d", sMD.Stats().NnzLU, sNat.Stats().NnzLU)
}

func TestMultipleSolves(t *testing.T) {
	m, _ := matgen.Lookup("SHERMAN4")
	a := m.Generate(0.35)
	s, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		want := make([]float64, a.Rows)
		for i := range want {
			want[i] = float64((i+trial)%7) - 3
		}
		b := make([]float64, a.Rows)
		a.MatVec(b, want)
		x, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if e := sparse.RelErrInf(x, want); e > 1e-8 {
			t.Errorf("trial %d: error %g", trial, e)
		}
	}
}

func TestCondAndFerr(t *testing.T) {
	m, _ := matgen.Lookup("WANG3")
	a := m.Generate(0.3)
	s, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := matgen.OnesRHS(a)
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	cond := s.CondEst()
	if cond < 1 || math.IsNaN(cond) {
		t.Errorf("condition estimate %g", cond)
	}
	ferr := s.ForwardErrorBound(x, b)
	trueErr := sparse.RelErrInf(x, onesSolution(a.Rows))
	if ferr <= 0 || math.IsNaN(ferr) {
		t.Errorf("forward error bound %g", ferr)
	}
	if ferr < trueErr/100 {
		t.Errorf("bound %g far below true error %g", ferr, trueErr)
	}
	if s.Stats().Times.Ferr <= 0 {
		t.Error("forward error time not recorded")
	}
}

func TestStatsPopulated(t *testing.T) {
	m, _ := matgen.Lookup("MEMPLUS")
	a := m.Generate(0.3)
	s, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := matgen.OnesRHS(a)
	if _, err := s.Solve(b); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.N != a.Rows || st.NnzA != a.Nnz() {
		t.Error("size stats wrong")
	}
	if st.NnzLU < st.NnzA {
		t.Errorf("nnz(L+U)=%d below nnz(A)=%d", st.NnzLU, st.NnzA)
	}
	if st.Flops <= 0 {
		t.Error("flops not counted")
	}
	if st.ZeroDiagsIn == 0 {
		t.Error("MEMPLUS should report zero diagonals on input")
	}
	if st.Times.Factor <= 0 || st.Times.RowPerm <= 0 {
		t.Error("phase times not recorded")
	}
	if len(st.BerrHistory) == 0 {
		t.Error("berr history empty")
	}
	if st.NumSuper <= 0 || st.AvgSuper <= 0 {
		t.Error("supernode stats missing")
	}
}

func TestSolveWrongLength(t *testing.T) {
	a := sparse.Identity(5)
	s, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(make([]float64, 4)); err == nil {
		t.Error("wrong-length b accepted")
	}
}

func TestRectangularRejected(t *testing.T) {
	tr := sparse.NewTriplet(2, 3)
	tr.Append(0, 0, 1)
	if _, err := New(tr.ToCSC(), DefaultOptions()); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

func TestDistSolveEndToEnd(t *testing.T) {
	m, _ := matgen.Lookup("AF23560")
	a := m.Generate(0.3)
	s, err := NewAnalysis(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(matgen.OnesRHS(a)); err == nil {
		t.Error("analysis-only solver accepted a serial Solve")
	}
	b := matgen.OnesRHS(a)
	for _, p := range []int{2, 8} {
		x, res, err := s.DistSolve(b, dist.Options{Procs: p, Pipeline: true, EDAGPrune: true})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if e := sparse.RelErrInf(x, onesSolution(a.Rows)); e > 1e-6 {
			t.Errorf("P=%d: distributed error %g", p, e)
		}
		if res.Factor.SimTime <= 0 || res.Solve.SimTime <= 0 {
			t.Errorf("P=%d: missing phase stats", p)
		}
	}
}

func TestDistSolveMatchesSerialSolve(t *testing.T) {
	m, _ := matgen.Lookup("SHERMAN4")
	a := m.Generate(0.3)
	b := matgen.OnesRHS(a)
	sSerial, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	xs, err := sSerial.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	xd, _, err := sSerial.DistSolve(b, dist.Options{Procs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if d := math.Abs(xs[i] - xd[i]); d > 1e-6*math.Abs(xs[i])+1e-9 {
			t.Fatalf("serial and distributed solutions diverge at %d: %g vs %g", i, xs[i], xd[i])
		}
	}
}

func TestParallelWorkersMatchesSerial(t *testing.T) {
	// Workers > 1 swaps in the DAG-scheduled factorization; the solution
	// must agree with the serial engine to refinement accuracy, and
	// refinement must still converge.
	for _, name := range []string{"MEMPLUS", "WANG4", "TWOTONE"} {
		m, _ := matgen.Lookup(name)
		a := m.Generate(0.15)
		b := matgen.OnesRHS(a)

		serial, err := New(a, DefaultOptions())
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		xs, err := serial.Solve(b)
		if err != nil {
			t.Fatal(err)
		}

		popts := DefaultOptions()
		popts.Workers = 4
		par, err := New(a, popts)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		xp, err := par.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if e := sparse.RelErrInf(xp, xs); e > 1e-8 {
			t.Errorf("%s: parallel vs serial solution differs by %g", name, e)
		}
		if berr := par.Stats().Berr; berr > 1e-10 {
			t.Errorf("%s: parallel berr = %g, want near eps", name, berr)
		}
		if !par.Stats().Converged {
			t.Errorf("%s: parallel refinement did not converge", name)
		}
	}
}
