package sched_test

import (
	"math"
	"math/rand"
	"testing"

	"gesp/internal/core"
	"gesp/internal/lu"
	"gesp/internal/matgen"
	"gesp/internal/sched"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

var workerSweep = []int{1, 2, 4, 8}

// factorizeParallel runs the DAG-scheduled engine and gathers its
// blocks into column-format factors, as core does.
func factorizeParallel(a *sparse.CSC, sym *symbolic.Result, opts lu.Options, workers int) (*lu.Factors, error) {
	g, tiny, err := sched.Factorize(a, sym, opts, workers)
	if err != nil {
		return nil, err
	}
	f := g.Factors(a)
	f.TinyPivots = tiny
	return f, nil
}

// maxAbsFactors returns the largest magnitude over both factor arrays,
// the scale for componentwise comparisons.
func maxAbsFactors(f *lu.Factors) float64 {
	m := 0.0
	for _, v := range f.LVal {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	for _, v := range f.UVal {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// assertFactorsClose compares two factorizations componentwise. The
// parallel schedule commutes Schur-update sums, so the factors agree to
// a rounding-level tolerance rather than bitwise.
func assertFactorsClose(t *testing.T, label string, ref, got *lu.Factors) {
	t.Helper()
	tol := 1e-8 * (1 + maxAbsFactors(ref))
	for q := range ref.LVal {
		if d := math.Abs(ref.LVal[q] - got.LVal[q]); d > tol {
			t.Fatalf("%s: L diverges by %g at %d (tol %g)", label, d, q, tol)
		}
	}
	for p := range ref.UVal {
		if d := math.Abs(ref.UVal[p] - got.UVal[p]); d > tol {
			t.Fatalf("%s: U diverges by %g at %d (tol %g)", label, d, p, tol)
		}
	}
	if ref.TinyPivots != got.TinyPivots {
		t.Fatalf("%s: tiny pivots %d, reference %d", label, got.TinyPivots, ref.TinyPivots)
	}
}

// TestParallelMatchesScalarOnTestbed is the golden test: across testbed
// matrices run through the full GESP preprocessing, the DAG-scheduled
// factors must match the scalar left-looking reference componentwise
// for every worker count.
func TestParallelMatchesScalarOnTestbed(t *testing.T) {
	names := []string{"AF23560", "MEMPLUS", "SHERMAN4", "TWOTONE", "WANG4", "EX11"}
	scale := 0.12
	if testing.Short() {
		names = []string{"SHERMAN4", "MEMPLUS"}
		scale = 0.06
	}
	for _, name := range names {
		m, ok := matgen.Lookup(name)
		if !ok {
			t.Fatalf("unknown testbed matrix %s", name)
		}
		a := m.Generate(scale)
		s, err := core.NewAnalysis(a, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: analysis: %v", name, err)
		}
		ap, sym := s.PermutedMatrix(), s.Symbolic()
		opts := lu.Options{ReplaceTinyPivot: true}
		ref, err := lu.Factorize(ap, sym, opts)
		if err != nil {
			t.Fatalf("%s: scalar reference: %v", name, err)
		}
		for _, w := range workerSweep {
			got, err := factorizeParallel(ap, sym, opts, w)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, w, err)
			}
			assertFactorsClose(t, name, ref, got)
			// The factors must actually solve the system.
			want := make([]float64, ap.Rows)
			for i := range want {
				want[i] = 1
			}
			b := make([]float64, ap.Rows)
			ap.MatVec(b, want)
			got.Solve(b)
			if e := sparse.RelErrInf(b, want); e > 1e-6 {
				t.Fatalf("%s workers=%d: solve error %g", name, w, e)
			}
		}
	}
}

// TestParallelSmallRace is the -short-friendly test meant to run under
// `go test -race`: a modest random system factored repeatedly with
// several workers, exercising the per-target-block locking and the
// atomic dependency counters.
func TestParallelSmallRace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		n := 120 + 40*trial
		tr := sparse.NewTriplet(n, n)
		for j := 0; j < n; j++ {
			tr.Append(j, j, 4+rng.Float64())
			for i := 0; i < n; i++ {
				if i != j && rng.Float64() < 0.05 {
					tr.Append(i, j, rng.NormFloat64())
				}
			}
		}
		a := tr.ToCSC()
		sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 6})
		if err != nil {
			t.Fatal(err)
		}
		opts := lu.Options{ReplaceTinyPivot: true}
		ref, err := lu.Factorize(a, sym, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			got, err := factorizeParallel(a, sym, opts, w)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			assertFactorsClose(t, "random", ref, got)
		}
	}
}

// TestDefaultWorkerCount exercises the workers<=0 GOMAXPROCS path.
func TestDefaultWorkerCount(t *testing.T) {
	m, _ := matgen.Lookup("SHERMAN4")
	a := m.Generate(0.06)
	s, err := core.NewAnalysis(a, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sched.Factorize(s.PermutedMatrix(), s.Symbolic(), lu.Options{ReplaceTinyPivot: true}, 0); err != nil {
		t.Fatal(err)
	}
}

// TestZeroPivotPropagates: a structurally singular pivot with
// replacement disabled must surface lu.ErrZeroPivot, not hang the pool.
func TestZeroPivotPropagates(t *testing.T) {
	tr := sparse.NewTriplet(2, 2)
	tr.Append(0, 1, 1)
	tr.Append(1, 0, 1)
	tr.Append(0, 0, 0)
	tr.Append(1, 1, 0)
	a := tr.ToCSC()
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{1, 4} {
		if _, err := factorizeParallel(a, sym, lu.Options{}, w); err == nil {
			t.Errorf("workers=%d: zero pivot accepted without replacement", w)
		}
	}
	f, err := factorizeParallel(a, sym, lu.Options{ReplaceTinyPivot: true}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.TinyPivots == 0 {
		t.Error("tiny pivots not counted")
	}
}
