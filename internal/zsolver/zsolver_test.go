package zsolver

import (
	"errors"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"gesp/internal/core"
	"gesp/internal/lu"
	"gesp/internal/ordering"
	"gesp/internal/zsparse"
)

func randomComplex(rng *rand.Rand, n int, density float64, strongDiag bool) *zsparse.CSC {
	t := zsparse.NewTriplet(n, n)
	for j := 0; j < n; j++ {
		if strongDiag {
			t.Append(j, j, complex(3+rng.Float64(), 1+rng.Float64()))
		}
		for i := 0; i < n; i++ {
			if i != j && rng.Float64() < density {
				t.Append(i, j, complex(rng.NormFloat64()*0.4, rng.NormFloat64()*0.4))
			}
		}
	}
	return t.ToCSC()
}

func TestComplexSolveRandomSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		n := 20 + rng.Intn(80)
		a := randomComplex(rng, n, 0.08, true)
		want := make([]complex128, n)
		for i := range want {
			want[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		b := make([]complex128, n)
		a.MatVec(b, want)
		s, err := New(a, core.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		x, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if e := zsparse.RelErrInf(x, want); e > 1e-10 {
			t.Fatalf("trial %d: error %g", trial, e)
		}
		if st := s.Stats(); st.Berr > 1e-12 {
			t.Fatalf("trial %d: berr %g", trial, st.Berr)
		}
	}
}

func TestComplexQuantumChemWorkload(t *testing.T) {
	// The paper's §4 application: a complex unsymmetric Green's-function
	// system. A nonzero imaginary energy shift keeps it solvable.
	rng := rand.New(rand.NewSource(5))
	a := zsparse.QuantumChem(8, 8, 6, complex(0.5, 1.2), rng)
	n := a.Rows
	want := make([]complex128, n)
	for i := range want {
		want[i] = complex(1, -1)
	}
	b := make([]complex128, n)
	a.MatVec(b, want)
	s, err := New(a, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if e := zsparse.RelErrInf(x, want); e > 1e-9 {
		t.Errorf("quantum chemistry system error %g", e)
	}
	st := s.Stats()
	if !st.Converged {
		t.Errorf("berr %g did not converge", st.Berr)
	}
	t.Logf("n=%d nnz=%d fill=%d refine=%d berr=%.2e", st.N, st.NnzA, st.NnzLU, st.RefineSteps, st.Berr)
}

func TestComplexZeroDiagonalNeedsMatching(t *testing.T) {
	// A complex matrix with zero diagonal: no-pivot fails, GESP succeeds.
	tr := zsparse.NewTriplet(3, 3)
	tr.Append(1, 0, complex(2, 1))
	tr.Append(0, 1, complex(1, -2))
	tr.Append(2, 1, complex(0.5, 0))
	tr.Append(0, 2, complex(0.1, 0))
	tr.Append(2, 2, complex(3, 0))
	a := tr.ToCSC()

	bare := core.Options{Ordering: ordering.Natural}
	if _, err := New(a, bare); err == nil {
		t.Error("plain no-pivoting accepted a zero-diagonal complex matrix")
	}
	s, err := New(a, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := []complex128{complex(1, 1), complex(-2, 0), complex(0, 3)}
	b := make([]complex128, 3)
	a.MatVec(b, want)
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if e := zsparse.RelErrInf(x, want); e > 1e-10 {
		t.Errorf("error %g", e)
	}
}

func TestComplexTinyPivotReplacement(t *testing.T) {
	tr := zsparse.NewTriplet(2, 2)
	tr.Append(0, 0, complex(1e-30, 0))
	tr.Append(1, 1, complex(2, 0))
	tr.Append(0, 1, complex(1, 1))
	tr.Append(1, 0, complex(1, -1))
	a := tr.ToCSC()
	opts := core.DefaultOptions()
	opts.RowPermute = false // keep the tiny diagonal in place
	opts.Equilibrate = false
	opts.Ordering = ordering.Natural // the elimination must meet the tiny pivot first
	s, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().TinyPivots == 0 {
		t.Error("tiny pivot not replaced")
	}
	// Refinement repairs the perturbation.
	want := []complex128{complex(1, 0), complex(0, 1)}
	b := make([]complex128, 2)
	a.MatVec(b, want)
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if e := zsparse.RelErrInf(x, want); e > 1e-9 {
		t.Errorf("error after refinement %g", e)
	}
}

func TestComplexBerrProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomComplex(rng, 30, 0.1, true)
	want := make([]complex128, 30)
	for i := range want {
		want[i] = complex(float64(i), -float64(i))
	}
	b := make([]complex128, 30)
	a.MatVec(b, want)
	if be := zsparse.Berr(a, want, b); be > lu.Eps*100 {
		t.Errorf("berr of exact solution = %g", be)
	}
	// Perturbed solution must have larger berr.
	xBad := append([]complex128(nil), want...)
	xBad[0] += complex(0.1, 0.1)
	if be := zsparse.Berr(a, xBad, b); be < 1e-6 {
		t.Errorf("berr of perturbed solution = %g, suspiciously small", be)
	}
}

// A NaN right-hand side poisons berr; refinement stops before its first
// correction and does not report convergence.
func TestComplexNaNRHSStopsRefinement(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomComplex(rng, 30, 0.1, true)
	s, err := New(a, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b := make([]complex128, 30)
	for i := range b {
		b[i] = complex(1, -1)
	}
	b[3] = complex(math.NaN(), 0)
	if _, err := s.Solve(b); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.RefineSteps != 0 || st.Converged || !math.IsNaN(st.Berr) {
		t.Errorf("RefineSteps=%d Converged=%v Berr=%g, want 0, false, NaN", st.RefineSteps, st.Converged, st.Berr)
	}
}

func TestComplexMagnitudeShadow(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := randomComplex(rng, 25, 0.15, true)
	m := a.Magnitude()
	if m.Nnz() != a.Nnz() {
		t.Fatal("magnitude changed the pattern")
	}
	for k := range a.Val {
		if m.Val[k] != cmplx.Abs(a.Val[k]) {
			t.Fatal("magnitude value mismatch")
		}
		if m.RowInd[k] != a.RowInd[k] {
			t.Fatal("magnitude row mismatch")
		}
	}
}

func TestComplexWrongSizeRHS(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := randomComplex(rng, 10, 0.2, true)
	s, err := New(a, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(make([]complex128, 5)); err == nil {
		t.Error("wrong-length rhs accepted")
	}
}

func TestComplexZeroPivotTypedError(t *testing.T) {
	// Port of the real solver's typed zero-pivot regression: the complex
	// factorization must also report WHICH column broke and under what
	// threshold, and keep matching the sentinel.
	tr := zsparse.NewTriplet(3, 3)
	tr.Append(1, 0, complex(2, 1))
	tr.Append(0, 1, complex(1, -2))
	tr.Append(2, 1, complex(0.5, 0))
	tr.Append(0, 2, complex(0.1, 0))
	tr.Append(2, 2, complex(3, 0))
	a := tr.ToCSC()

	_, err := New(a, core.Options{Ordering: ordering.Natural})
	if err == nil {
		t.Fatal("plain no-pivoting accepted a zero-diagonal complex matrix")
	}
	var zp *lu.ZeroPivotError
	if !errors.As(err, &zp) {
		t.Fatalf("error %T is not a *lu.ZeroPivotError: %v", err, err)
	}
	if zp.Col != 0 {
		t.Errorf("Col = %d, want 0", zp.Col)
	}
	if zp.Threshold <= 0 {
		t.Errorf("Threshold = %g, want > 0", zp.Threshold)
	}
	if !errors.Is(err, lu.ErrZeroPivot) {
		t.Error("typed error no longer matches the ErrZeroPivot sentinel")
	}
}

func TestComplexZeroDiagonalReplacementCounts(t *testing.T) {
	// The same structurally-zero diagonal, with replacement on: the
	// factorization must succeed, count its perturbations, and refinement
	// must repair them — the complex mirror of the real TinyPivots test.
	tr := zsparse.NewTriplet(3, 3)
	tr.Append(1, 0, complex(2, 1))
	tr.Append(0, 1, complex(1, -2))
	tr.Append(2, 1, complex(0.5, 0))
	tr.Append(0, 2, complex(0.1, 0))
	tr.Append(2, 2, complex(3, 0))
	a := tr.ToCSC()

	s, err := New(a, core.Options{Ordering: ordering.Natural, ReplaceTinyPivot: true, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().TinyPivots == 0 {
		t.Error("zero diagonal factored without recorded replacements")
	}
	want := []complex128{complex(1, 1), complex(-2, 0), complex(0, 3)}
	b := make([]complex128, 3)
	a.MatVec(b, want)
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if e := zsparse.RelErrInf(x, want); e > 1e-9 {
		t.Errorf("error after refinement %g", e)
	}
}
