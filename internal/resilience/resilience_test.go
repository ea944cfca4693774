package resilience

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"gesp/internal/faultsim"
	"gesp/internal/lu"
	"gesp/internal/refine"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// factor runs the static-pivot pipeline the ladder sits behind.
func factor(t *testing.T, a *sparse.CSC) *lu.Factors {
	t.Helper()
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := lu.Factorize(a, sym, lu.Options{ReplaceTinyPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func rhsFor(a *sparse.CSC) (x, b []float64) {
	n := a.Rows
	x = make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(i%5)/7
	}
	b = make([]float64, n)
	a.MatVec(b, x)
	return x, b
}

// Rung 0: a healthy system stays on the static rung.
func TestRung0HappyPath(t *testing.T) {
	a := faultsim.New(11).WellConditioned(60, 0.1)
	f := factor(t, a)
	l := NewLadder(a, f, nil, Policy{})
	_, b := rhsFor(a)
	x := make([]float64, a.Rows)
	tr, err := l.Solve(context.Background(), x, b)
	if err != nil {
		t.Fatalf("healthy solve failed: %v (trace %s)", err, tr)
	}
	if !tr.Converged || tr.FinalRung != RungStatic {
		t.Fatalf("healthy solve escalated: %s", tr)
	}
	if len(tr.Steps) != 1 {
		t.Fatalf("healthy solve recorded %d steps, want 1: %s", len(tr.Steps), tr)
	}
	if tr.FinalBerr > l.Tol() {
		t.Fatalf("berr %g above tolerance %g", tr.FinalBerr, l.Tol())
	}
	if tr.Escalated() || tr.FallbackCost() != 0 {
		t.Fatalf("happy path reported escalation: %s", tr)
	}
}

// The acceptance gate: rung 0 must not allocate.
func TestRung0SolveAllocatesNothing(t *testing.T) {
	a := faultsim.New(11).WellConditioned(60, 0.1)
	f := factor(t, a)
	l := NewLadder(a, f, nil, Policy{})
	_, b := rhsFor(a)
	x := make([]float64, a.Rows)
	ctx := context.Background()
	if _, err := l.Solve(ctx, x, b); err != nil { // warm up
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := l.Solve(ctx, x, b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("happy-path solve allocates %.1f objects per run, want 0", allocs)
	}
}

// Rung 1: factors mildly stale relative to the watched matrix. The
// refinement contraction sits in (1/2, 1): the paper's halving test on
// rung 0 gives up, patient extra-precision refinement converges.
func TestRung1ExtraPrecisionRecoversSlowContraction(t *testing.T) {
	in := faultsim.New(23)
	base := in.WellConditioned(60, 0.1)
	f := factor(t, base)
	cur := in.PerturbValues(base, 0.20)
	l := NewLadder(cur, f, nil, Policy{})
	_, b := rhsFor(cur)
	x := make([]float64, cur.Rows)
	tr, err := l.Solve(context.Background(), x, b)
	if err != nil {
		t.Fatalf("solve failed: %v (trace %s)", err, tr)
	}
	if tr.FinalRung != RungExtraPrecision {
		t.Fatalf("final rung %s, want %s: %s", tr.FinalRung, RungExtraPrecision, tr)
	}
	if got := tr.Steps[1].Trigger; got != TriggerStall && got != TriggerDiverge {
		t.Fatalf("rung 1 entered on %s, want stall/diverge: %s", got, tr)
	}
	if !tr.Converged || tr.FinalBerr > l.Tol() {
		t.Fatalf("rung 1 did not recover: %s", tr)
	}
}

// Rung 2: a near-singular leading pivot defeats the sqrt(eps)·‖A‖
// replacement — the perturbed factorization is ill-conditioned, plain
// and patient refinement both crawl at contraction ≈ 1 − γ/t, and only
// SMW recovery of the true system reaches tolerance.
func TestRung2SMWRecoversPerturbedPivots(t *testing.T) {
	a := faultsim.New(7).NearSingular(40, 1e-10)
	f := factor(t, a)
	if f.TinyPivots == 0 {
		t.Fatal("scenario did not trigger pivot replacement")
	}
	l := NewLadder(a, f, nil, Policy{})
	_, b := rhsFor(a)
	x := make([]float64, a.Rows)
	tr, err := l.Solve(context.Background(), x, b)
	if err != nil {
		t.Fatalf("solve failed: %v (trace %s)", err, tr)
	}
	if tr.FinalRung != RungSMW {
		t.Fatalf("final rung %s, want %s: %s", tr.FinalRung, RungSMW, tr)
	}
	if !tr.Converged || tr.FinalBerr > l.Tol() {
		t.Fatalf("SMW did not recover: %s", tr)
	}
	// Rungs 0 and 1 must both have genuinely tried and failed.
	if len(tr.Steps) != 3 || tr.Steps[0].Rung != RungStatic || tr.Steps[1].Rung != RungExtraPrecision {
		t.Fatalf("unexpected climb: %s", tr)
	}
}

// Rung 3: adversarial value drift under a cached pattern makes the
// stale factors diverge as a refinement solver (contraction > 1) while
// still working as a GMRES preconditioner. No pivot was modified, so
// the SMW rung is skipped.
func TestRung3GMRESWithStalePreconditioner(t *testing.T) {
	in := faultsim.New(31)
	base := in.WellConditioned(40, 0.1)
	f := factor(t, base)
	if f.TinyPivots != 0 {
		t.Fatal("base factorization unexpectedly replaced pivots")
	}
	cur := in.PerturbValues(base, 1.5)
	l := NewLadder(cur, f, nil, Policy{})
	_, b := rhsFor(cur)
	x := make([]float64, cur.Rows)
	tr, err := l.Solve(context.Background(), x, b)
	if err != nil {
		t.Fatalf("solve failed: %v (trace %s)", err, tr)
	}
	if tr.FinalRung != RungIterative {
		t.Fatalf("final rung %s, want %s: %s", tr.FinalRung, RungIterative, tr)
	}
	if !tr.Converged || tr.FinalBerr > l.Tol() {
		t.Fatalf("GMRES did not recover: %s", tr)
	}
	var smwStep *Step
	for i := range tr.Steps {
		if tr.Steps[i].Rung == RungSMW {
			smwStep = &tr.Steps[i]
		}
	}
	if smwStep == nil || !smwStep.Skipped {
		t.Fatalf("SMW rung should have been skipped (no pivot mods): %s", tr)
	}
}

// Rung 4: NaN-corrupted factors poison every rung that reuses them;
// only the partial-pivoting refactorization recovers.
func TestRung4GEPPRecoversCorruptFactors(t *testing.T) {
	in := faultsim.New(17)
	a := in.WellConditioned(50, 0.1)
	f := factor(t, a)
	in.CorruptFactors(f, 3)
	l := NewLadder(a, f, nil, Policy{})
	_, b := rhsFor(a)
	x := make([]float64, a.Rows)
	tr, err := l.Solve(context.Background(), x, b)
	if err != nil {
		t.Fatalf("solve failed: %v (trace %s)", err, tr)
	}
	if tr.FinalRung != RungGEPP {
		t.Fatalf("final rung %s, want %s: %s", tr.FinalRung, RungGEPP, tr)
	}
	if !tr.Converged || tr.FinalBerr > l.Tol() {
		t.Fatalf("GEPP did not recover: %s", tr)
	}
	if tr.Steps[0].Trigger != TriggerNone || tr.Steps[0].Rung != RungStatic {
		t.Fatalf("climb should start at the static rung: %s", tr)
	}
	// The corrupted factors must have been detected as non-finite on the
	// way up, not merely inaccurate.
	sawNonFinite := false
	for _, s := range tr.Steps {
		if s.Trigger == TriggerNonFinite {
			sawNonFinite = true
		}
	}
	if !sawNonFinite {
		t.Fatalf("no rung reported non-finite arithmetic: %s", tr)
	}
}

// VerifyFactors short-circuits the climb: a fingerprint mismatch jumps
// straight to refactorization without burning time on poisoned rungs.
func TestVerifyFactorsJumpsToGEPP(t *testing.T) {
	in := faultsim.New(17)
	a := in.WellConditioned(50, 0.1)
	f := factor(t, a)
	l := NewLadder(a, f, nil, Policy{VerifyFactors: true})
	in.CorruptFactors(f, 2) // corrupt AFTER the ladder recorded the fingerprint
	_, b := rhsFor(a)
	x := make([]float64, a.Rows)
	tr, err := l.Solve(context.Background(), x, b)
	if err != nil {
		t.Fatalf("solve failed: %v (trace %s)", err, tr)
	}
	if len(tr.Steps) != 1 || tr.Steps[0].Rung != RungGEPP {
		t.Fatalf("want a single direct GEPP step, got %s", tr)
	}
	if tr.Steps[0].Trigger != TriggerCorruptFactors {
		t.Fatalf("trigger %s, want %s", tr.Steps[0].Trigger, TriggerCorruptFactors)
	}
	if !tr.Converged {
		t.Fatalf("did not recover: %s", tr)
	}
}

// A poisoned right-hand side fails fast: no rung can launder NaN.
func TestNonFiniteRHSFailsFast(t *testing.T) {
	a := faultsim.New(3).WellConditioned(30, 0.1)
	f := factor(t, a)
	l := NewLadder(a, f, nil, Policy{})
	for _, nan := range []bool{true, false} {
		_, b := rhsFor(a)
		faultsim.New(5).PoisonRHS(b, 2, nan)
		x := make([]float64, a.Rows)
		tr, err := l.Solve(context.Background(), x, b)
		if !errors.Is(err, ErrNonFiniteRHS) {
			t.Fatalf("nan=%v: err = %v, want ErrNonFiniteRHS", nan, err)
		}
		if len(tr.Steps) != 0 {
			t.Fatalf("nan=%v: rungs ran on a poisoned RHS: %s", nan, tr)
		}
	}
}

// MaxRung caps the climb and surfaces ErrUnrecovered with the trace.
func TestMaxRungCapsTheClimb(t *testing.T) {
	a := faultsim.New(7).NearSingular(40, 1e-10)
	f := factor(t, a)
	l := NewLadder(a, f, nil, Policy{MaxRung: RungExtraPrecision})
	_, b := rhsFor(a)
	x := make([]float64, a.Rows)
	tr, err := l.Solve(context.Background(), x, b)
	if !errors.Is(err, ErrUnrecovered) {
		t.Fatalf("err = %v, want ErrUnrecovered", err)
	}
	if tr.Converged || tr.FinalRung != RungExtraPrecision {
		t.Fatalf("capped climb ended at %s converged=%v", tr.FinalRung, tr.Converged)
	}
}

// Per-rung deadlines bound each rung's work and are recorded as the
// escalation trigger.
func TestRungDeadlineTriggersEscalation(t *testing.T) {
	in := faultsim.New(23)
	base := in.WellConditioned(60, 0.1)
	f := factor(t, base)
	cur := in.PerturbValues(base, 0.20)
	l := NewLadder(cur, f, nil, Policy{MaxRung: RungExtraPrecision, RungDeadline: time.Nanosecond})
	_, b := rhsFor(cur)
	x := make([]float64, cur.Rows)
	start := time.Now()
	tr, err := l.Solve(context.Background(), x, b)
	if !errors.Is(err, ErrUnrecovered) {
		t.Fatalf("err = %v, want ErrUnrecovered", err)
	}
	for _, s := range tr.Steps[1:] {
		if s.Trigger != TriggerDeadline {
			t.Fatalf("step %s entered on %s, want deadline: %s", s.Rung, s.Trigger, tr)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadlined solve took %v", elapsed)
	}
}

// Context cancellation aborts the climb between rungs.
func TestContextCancellationAborts(t *testing.T) {
	a := faultsim.New(11).WellConditioned(30, 0.1)
	f := factor(t, a)
	l := NewLadder(a, f, nil, Policy{})
	_, b := rhsFor(a)
	x := make([]float64, a.Rows)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := l.Solve(ctx, x, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// OnTrace observes every solve, escalated or not.
func TestOnTraceObservesEverySolve(t *testing.T) {
	a := faultsim.New(11).WellConditioned(30, 0.1)
	f := factor(t, a)
	traces := 0
	var l *Ladder
	l = NewLadder(a, f, nil, Policy{OnTrace: func(e *Escalation) {
		traces++
		if e != l.LastTrace() {
			t.Error("OnTrace got a different trace than LastTrace")
		}
	}})
	_, b := rhsFor(a)
	x := make([]float64, a.Rows)
	for i := 0; i < 3; i++ {
		if _, err := l.Solve(context.Background(), x, b); err != nil {
			t.Fatal(err)
		}
	}
	if traces != 3 {
		t.Fatalf("OnTrace fired %d times, want 3", traces)
	}
}

// Escalate takes over from a rung 0 the caller ran (core: one
// refine.RefineMulti per block of right-hand sides) and ends where Solve
// does, bit for bit: a healthy vector stays on rung 0, a stale one climbs
// from rung 1 on its rung-0 exit.
func TestEscalateEntryPoint(t *testing.T) {
	in := faultsim.New(23)
	base := in.WellConditioned(60, 0.1)
	for _, c := range []struct {
		name string
		a    *sparse.CSC
		want Rung
	}{{"healthy", base, RungStatic}, {"stale", in.PerturbValues(base, 0.20), RungExtraPrecision}} {
		f := factor(t, base)
		want, b := rhsFor(c.a)
		ctx := context.Background()
		l := NewLadder(c.a, f, nil, Policy{})
		x := append([]float64(nil), b...)
		f.Solve(x) // the "batched sweep" the caller already did
		st := refine.RefineMulti(c.a, f, x, b, 1, l.Rung0(ctx, time.Now()))[0]
		tr, err := l.Escalate(ctx, x, b, st, 0)
		if err != nil || !tr.Converged || tr.FinalRung != c.want {
			t.Fatalf("%s: err %v, trace %s, want convergence on %s", c.name, err, tr, c.want)
		}
		if tr.Steps[0].Iterations != st.Steps || tr.Steps[0].BerrAfter != st.FinalBerr {
			t.Fatalf("%s: rung 0 recorded as %+v, refine reported %+v", c.name, tr.Steps[0], st)
		}
		for i := range want {
			if math.Abs(x[i]-want[i]) > 1e-6 {
				t.Fatalf("%s: x[%d] = %g, want %g", c.name, i, x[i], want[i])
			}
		}
		got := *tr
		got.Steps = append([]Step(nil), tr.Steps...)
		y := make([]float64, len(b))
		ref, err := NewLadder(c.a, f, nil, Policy{}).Solve(ctx, y, b)
		if err != nil || len(ref.Steps) != len(got.Steps) {
			t.Fatalf("%s: Solve: err %v, trace %s against %s", c.name, err, ref, &got)
		}
		for i, s := range ref.Steps {
			g := got.Steps[i]
			if g.Rung != s.Rung || g.Trigger != s.Trigger || g.Iterations != s.Iterations || g.BerrAfter != s.BerrAfter {
				t.Fatalf("%s: step %d is %+v, Solve's %+v", c.name, i, g, s)
			}
		}
		for i := range y {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				t.Fatalf("%s: x[%d] = %v, Solve's %v", c.name, i, x[i], y[i])
			}
		}
	}
}
