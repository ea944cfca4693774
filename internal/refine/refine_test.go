package refine

import (
	"math"
	"math/rand"
	"testing"

	"gesp/internal/lu"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

func randomSystem(rng *rand.Rand, n int, density float64) (*sparse.CSC, *lu.Factors) {
	t := sparse.NewTriplet(n, n)
	for j := 0; j < n; j++ {
		t.Append(j, j, 2+rng.Float64())
		for i := 0; i < n; i++ {
			if i != j && rng.Float64() < density {
				t.Append(i, j, rng.NormFloat64()*0.4)
			}
		}
	}
	a := t.ToCSC()
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		panic(err)
	}
	f, err := lu.Factorize(a, sym, lu.Options{ReplaceTinyPivot: true})
	if err != nil {
		panic(err)
	}
	return a, f
}

func TestBerrZeroForExactSolution(t *testing.T) {
	a := sparse.FromDense([][]float64{{2, 1}, {0, 3}})
	x := []float64{1, 2}
	b := make([]float64, 2)
	a.MatVec(b, x)
	if be := Berr(a, x, b); be != 0 {
		t.Errorf("berr of exact solution = %g, want 0", be)
	}
}

func TestBerrInfForInconsistentZeroRowDenominator(t *testing.T) {
	a := sparse.FromDense([][]float64{{1, 0}, {0, 1}})
	// x = 0 and b nonzero in a row where |A||x|+|b| = 0 cannot happen with
	// b nonzero; instead use b = 0 row with nonzero residual impossible —
	// so check the Inf path via a zero matrix row... A zero row is the only
	// trigger; construct directly.
	tr := sparse.NewTriplet(2, 2)
	tr.Append(0, 0, 1)
	tr.Append(0, 1, 1)
	az := tr.ToCSC() // second row entirely zero
	x := []float64{0, 0}
	b := []float64{0, 1}
	if be := Berr(az, x, b); be != 1 {
		// denominator |b|=1 > 0 in row 1, residual 1 -> berr = 1
		t.Errorf("berr = %g, want 1", be)
	}
	_ = a
}

// TestBerrInfWhenResidualOverflows: b − A·x overflowing in a row must not
// pass for a NaN ratio, which the max would skip, reporting berr 0; and an
// infinite berr, the initial one included, stops refinement unconverged.
func TestBerrInfWhenResidualOverflows(t *testing.T) {
	a := sparse.Identity(2)
	x, b := []float64{-1e308, 1}, []float64{1e308, 1}
	if be := Berr(a, x, b); !math.IsInf(be, 1) {
		t.Errorf("berr = %g, want +Inf", be)
	}
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := lu.Factorize(a, sym, lu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := Refine(a, f, x, b, Options{}); st.Exit != ExitNonFinite || st.Steps != 0 || st.Converged {
		t.Errorf("refining from berr +Inf: %+v, want exit non-finite after 0 steps", st)
	}
}

func TestRefineConvergesToMachineEps(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		n := 10 + rng.Intn(60)
		a, f := randomSystem(rng, n, 0.1)
		want := make([]float64, n)
		for i := range want {
			want[i] = 1
		}
		b := make([]float64, n)
		a.MatVec(b, want)
		x := append([]float64(nil), b...)
		f.Solve(x)
		st := Refine(a, f, x, b, Options{})
		if !st.Converged {
			t.Fatalf("trial %d: refinement did not converge, berr=%g after %d steps", trial, st.FinalBerr, st.Steps)
		}
		if st.FinalBerr > lu.Eps {
			t.Fatalf("trial %d: final berr %g > eps", trial, st.FinalBerr)
		}
		if e := sparse.RelErrInf(x, want); e > 1e-10 {
			t.Fatalf("trial %d: refined error %g", trial, e)
		}
	}
}

func TestRefineRepairsPerturbedPivots(t *testing.T) {
	// A matrix with a zero diagonal entry: GESP perturbs the pivot, the
	// initial solve is wrong, refinement must repair it. This is exactly
	// how step (4) "corrects for the perturbations in step (3)".
	a := sparse.FromDense([][]float64{
		{0, 2, 1},
		{3, 0, 1},
		{1, 1, 4},
	})
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := lu.Factorize(a, sym, lu.Options{ReplaceTinyPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.TinyPivots == 0 {
		t.Fatal("expected pivot replacements on zero diagonal")
	}
	want := []float64{1, 1, 1}
	b := make([]float64, 3)
	a.MatVec(b, want)
	x := append([]float64(nil), b...)
	f.Solve(x)
	before := sparse.RelErrInf(x, want)
	st := Refine(a, f, x, b, Options{})
	after := sparse.RelErrInf(x, want)
	if !st.Converged {
		t.Fatalf("did not converge: berr=%g", st.FinalBerr)
	}
	if after > 1e-12 {
		t.Errorf("error after refinement %g (before %g)", after, before)
	}
	if st.Steps == 0 && before > 1e-12 {
		t.Error("refinement claimed zero steps despite an inaccurate start")
	}
}

func TestRefineStagnationStops(t *testing.T) {
	// Identity "solver" never improves anything: the stagnation rule must
	// stop the loop early.
	rng := rand.New(rand.NewSource(67))
	a, _ := randomSystem(rng, 20, 0.2)
	b := make([]float64, 20)
	for i := range b {
		b[i] = 1
	}
	x := make([]float64, 20) // x = 0, terrible
	st := Refine(a, noopSystem{}, x, b, Options{MaxIter: 10})
	if st.Converged {
		t.Error("no-op solver cannot converge")
	}
	if st.Steps > 2 {
		t.Errorf("stagnation not detected: %d steps", st.Steps)
	}
}

type noopSystem struct{}

func (noopSystem) Solve(x []float64) {
	for i := range x {
		x[i] = 0
	}
}
func (noopSystem) SolveT(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

func TestExtraPrecisionResidualAtLeastAsGood(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n := 50
	a, f := randomSystem(rng, n, 0.15)
	want := make([]float64, n)
	for i := range want {
		want[i] = 1
	}
	b := make([]float64, n)
	a.MatVec(b, want)
	x1 := append([]float64(nil), b...)
	f.Solve(x1)
	st1 := Refine(a, f, x1, b, Options{ExtraPrecision: true})
	if !st1.Converged {
		t.Errorf("extra precision refinement failed: berr=%g", st1.FinalBerr)
	}
	if e := sparse.RelErrInf(x1, want); e > 1e-10 {
		t.Errorf("extra precision error %g", e)
	}
}

func TestCond1EstOnDiagonal(t *testing.T) {
	// diag(1, 10, 100): kappa_1 = 100 exactly.
	a := sparse.FromDense([][]float64{
		{1, 0, 0},
		{0, 10, 0},
		{0, 0, 100},
	})
	sym, _ := symbolic.Factorize(a, symbolic.Options{})
	f, _ := lu.Factorize(a, sym, lu.Options{})
	got, _ := Cond1Est(a, f)
	if math.Abs(got-100) > 1 {
		t.Errorf("Cond1Est = %g, want about 100", got)
	}
}

func TestCond1EstDetectsIllConditioning(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	aGood, fGood := randomSystem(rng, 30, 0.1)
	condGood, _ := Cond1Est(aGood, fGood)
	// Nearly singular matrix: condition estimate must be much larger.
	eps := 1e-12
	aBad := sparse.FromDense([][]float64{
		{1, 1},
		{1, 1 + eps},
	})
	symBad, _ := symbolic.Factorize(aBad, symbolic.Options{})
	fBad, _ := lu.Factorize(aBad, symBad, lu.Options{})
	condBad, _ := Cond1Est(aBad, fBad)
	if condBad < 1e10 {
		t.Errorf("near-singular cond estimate %g, want >= 1e10", condBad)
	}
	if condBad < condGood {
		t.Errorf("cond(bad)=%g < cond(good)=%g", condBad, condGood)
	}
}

func TestForwardErrorBoundCoversTrueError(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 10; trial++ {
		n := 10 + rng.Intn(40)
		a, f := randomSystem(rng, n, 0.15)
		want := make([]float64, n)
		for i := range want {
			want[i] = 1
		}
		b := make([]float64, n)
		a.MatVec(b, want)
		x := append([]float64(nil), b...)
		f.Solve(x)
		Refine(a, f, x, b, Options{})
		ferr := ForwardErrorBound(a, f, x, b)
		trueErr := sparse.RelErrInf(x, want)
		if ferr < trueErr/10 {
			t.Errorf("trial %d: bound %g far below true error %g", trial, ferr, trueErr)
		}
		if ferr > 1e-6 {
			t.Errorf("trial %d: bound %g suspiciously large for a well-conditioned system", trial, ferr)
		}
	}
}

func TestSMWRecoversOriginalSolution(t *testing.T) {
	// Factor a matrix whose pivots were aggressively replaced; SMW solves
	// must give the ORIGINAL matrix's solution directly.
	a := sparse.FromDense([][]float64{
		{1e-14, 2, 0, 1},
		{3, 1e-14, 1, 0},
		{0, 1, 4, 1},
		{1, 0, 1, 5},
	})
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := lu.Factorize(a, sym, lu.Options{ReplaceTinyPivot: true, Aggressive: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.TinyPivots < 1 {
		t.Fatalf("expected at least 1 pivot replacement, got %d", f.TinyPivots)
	}
	smw, err := NewSMWSolver(f)
	if err != nil {
		t.Fatal(err)
	}
	if smw.Rank() != f.TinyPivots {
		t.Errorf("Rank = %d, want %d", smw.Rank(), f.TinyPivots)
	}
	want := []float64{1, -2, 3, -4}
	b := make([]float64, 4)
	a.MatVec(b, want)

	// Plain perturbed solve is inaccurate; SMW solve is accurate.
	xPlain := append([]float64(nil), b...)
	f.Solve(xPlain)
	xSMW := append([]float64(nil), b...)
	smw.Solve(xSMW)
	ePlain := sparse.RelErrInf(xPlain, want)
	eSMW := sparse.RelErrInf(xSMW, want)
	if eSMW > 1e-9 {
		t.Errorf("SMW solve error %g (plain %g)", eSMW, ePlain)
	}
	if eSMW > ePlain {
		t.Errorf("SMW (%g) did not improve over plain (%g)", eSMW, ePlain)
	}

	// Transpose solve too.
	bt := make([]float64, 4)
	a.MatTVec(bt, want)
	xt := append([]float64(nil), bt...)
	smw.SolveT(xt)
	if e := sparse.RelErrInf(xt, want); e > 1e-9 {
		t.Errorf("SMW transpose solve error %g", e)
	}
}

func TestSMWNoModsDelegates(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a, f := randomSystem(rng, 15, 0.2)
	smw, err := NewSMWSolver(f)
	if err != nil {
		t.Fatal(err)
	}
	if smw.Rank() != 0 {
		t.Fatalf("unexpected rank %d", smw.Rank())
	}
	b := make([]float64, 15)
	for i := range b {
		b[i] = float64(i)
	}
	x1 := append([]float64(nil), b...)
	x2 := append([]float64(nil), b...)
	f.Solve(x1)
	smw.Solve(x2)
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatal("rank-0 SMW diverged from base factors")
		}
	}
	_ = a
}

func TestSMWWithRefinement(t *testing.T) {
	// SMW as the System inside refinement drives berr of the ORIGINAL
	// matrix to machine epsilon.
	a := sparse.FromDense([][]float64{
		{1e-13, 2, 1},
		{3, 1, 0},
		{0, 1, 2},
	})
	sym, _ := symbolic.Factorize(a, symbolic.Options{})
	f, err := lu.Factorize(a, sym, lu.Options{ReplaceTinyPivot: true, Aggressive: true})
	if err != nil {
		t.Fatal(err)
	}
	smw, err := NewSMWSolver(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, -1, 1}
	b := make([]float64, 3)
	a.MatVec(b, want)
	x := append([]float64(nil), b...)
	smw.Solve(x)
	st := Refine(a, smw, x, b, Options{})
	if !st.Converged {
		t.Errorf("refinement with SMW failed: berr %g", st.FinalBerr)
	}
	if e := sparse.RelErrInf(x, want); e > 1e-12 {
		t.Errorf("final error %g", e)
	}
}

func TestInvNormEstAgainstExact(t *testing.T) {
	// Hager's estimate is a lower bound usually within a small factor of
	// the exact ||A^{-1}||_1; verify on small random systems where the
	// exact value is computable column by column.
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 15; trial++ {
		n := 5 + rng.Intn(25)
		a, f := randomSystem(rng, n, 0.25)
		_ = a
		exact := 0.0
		for j := 0; j < n; j++ {
			e := make([]float64, n)
			e[j] = 1
			f.Solve(e)
			s := 0.0
			for _, v := range e {
				s += math.Abs(v)
			}
			if s > exact {
				exact = s
			}
		}
		est, _ := InvNormEst1(f, n)
		if est > exact*(1+1e-10) {
			t.Fatalf("trial %d: estimate %g exceeds exact %g", trial, est, exact)
		}
		if est < exact/3 {
			t.Fatalf("trial %d: estimate %g far below exact %g", trial, est, exact)
		}
	}
}

// scaledSystem applies c·M⁻¹: c = 1 is the factors, 0 < c < 1 a damped
// correction that contracts berr by about 1 − c per step, and c < 0 one
// that moves away from the solution.
type scaledSystem struct {
	f *lu.Factors
	c float64
}

func (s scaledSystem) Solve(x []float64) {
	s.f.Solve(x)
	for i := range x {
		x[i] *= s.c
	}
}
func (s scaledSystem) SolveT(x []float64) { s.f.SolveT(x) }

// nanSystem's corrections are NaN.
type nanSystem struct{}

func (nanSystem) Solve(x []float64) {
	for i := range x {
		x[i] = math.NaN()
	}
}
func (nanSystem) SolveT(x []float64) { nanSystem{}.Solve(x) }

// TestRefineExitReasons reaches every Exit, and the patient rule's
// difference from the halving test.
func TestRefineExitReasons(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	n := 30
	a, f := randomSystem(rng, n, 0.1)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%3)
	}
	for _, c := range []struct {
		name  string
		sys   System
		x0    float64 // every entry of the starting iterate; 0.5 ≠ the solution
		opts  Options
		exit  Exit
		steps int
	}{
		{"converged", f, 0.5, Options{}, ExitConverged, -1},
		{"stall: no correction", noopSystem{}, 0.5, Options{}, ExitStall, 1},
		{"stall: patient, no correction", noopSystem{}, 0.5, Options{Patient: true}, ExitStall, 1},
		{"stall: berr drops by less than half", scaledSystem{f, 0.3}, 0.5, Options{}, ExitStall, 1},
		{"max-iter: patient on the same contraction", scaledSystem{f, 0.3}, 0.5, Options{Patient: true, MaxIter: 4}, ExitMaxIter, 4},
		{"max-iter: halving every step", scaledSystem{f, 0.6}, 0.5, Options{MaxIter: 2}, ExitMaxIter, 2},
		{"diverge", scaledSystem{f, -3}, 0.5, Options{}, ExitDiverge, 1},
		{"diverge: patient", scaledSystem{f, -3}, 0.5, Options{Patient: true}, ExitDiverge, 1},
		{"non-finite: NaN iterate", f, math.NaN(), Options{}, ExitNonFinite, 0},
		{"non-finite: NaN correction", nanSystem{}, 0.5, Options{}, ExitNonFinite, 1},
		{"cancelled", f, 0.5, Options{Cancel: func() bool { return true }}, ExitCancelled, 0},
	} {
		x := make([]float64, n)
		for i := range x {
			x[i] = c.x0
		}
		st := Refine(a, c.sys, x, b, c.opts)
		if st.Exit != c.exit || st.Converged != (c.exit == ExitConverged) || (c.steps >= 0 && st.Steps != c.steps) {
			t.Errorf("%s: exit %d after %d steps (converged %v, berrs %v), want exit %d after %d", c.name, st.Exit, st.Steps, st.Converged, st.Berrs, c.exit, c.steps)
		}
	}
}

// TestCancelMidBatch: a Cancel that fires between two steps stops the
// vectors still refining with ExitCancelled and the steps they took;
// vectors that stopped before keep their own exits.
func TestCancelMidBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	n := 25
	a, f := randomSystem(rng, n, 0.1)
	want := make([]float64, n)
	for i := range want {
		want[i] = 1
	}
	bv := make([]float64, n)
	a.MatVec(bv, want)
	// Vector 0 starts at the solution, 1 at zero, 2 is NaN.
	x := make([]float64, 3*n)
	b := make([]float64, 3*n)
	for v := 0; v < 3; v++ {
		copy(b[v*n:], bv)
	}
	copy(x, want)
	x[2*n] = math.NaN()
	polls := 0
	sts := RefineMulti(a, scaledSystem{f, 0.6}, x, b, 3, Options{Cancel: func() bool { polls++; return polls == 2 }})
	if polls != 2 {
		t.Fatalf("Cancel polled %d times, want 2", polls)
	}
	for v, w := range []struct {
		exit  Exit
		steps int
	}{{ExitConverged, 0}, {ExitCancelled, 1}, {ExitNonFinite, 0}} {
		if sts[v].Exit != w.exit || sts[v].Steps != w.steps {
			t.Errorf("vector %d: exit %d after %d steps, want exit %d after %d", v, sts[v].Exit, sts[v].Steps, w.exit, w.steps)
		}
	}
	if sts[1].Converged || len(sts[1].Berrs) != 2 {
		t.Errorf("cancelled vector: %+v", sts[1])
	}
}
