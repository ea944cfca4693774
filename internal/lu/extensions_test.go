package lu

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// arrowToDense builds a matrix whose fill produces a genuinely dense
// trailing block: a banded head plus a dense coupling tail.
func arrowToDense(rng *rand.Rand, n, tail int) *sparse.CSC {
	t := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		t.Append(i, i, 6+rng.Float64())
		if i+1 < n {
			t.Append(i+1, i, rng.NormFloat64()*0.5)
			t.Append(i, i+1, rng.NormFloat64()*0.5)
		}
	}
	for i := n - tail; i < n; i++ {
		for j := n - tail; j < n; j++ {
			if i != j {
				t.Append(i, j, rng.NormFloat64()*0.3)
			}
		}
		// Couple the tail to the head so elimination order matters.
		t.Append(i, i%(n-tail), rng.NormFloat64()*0.2)
		t.Append(i%(n-tail), i, rng.NormFloat64()*0.2)
	}
	return t.ToCSC()
}

func TestDenseTailMatchesSparseFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 10; trial++ {
		n := 60 + rng.Intn(60)
		a := arrowToDense(rng, n, 12+rng.Intn(10))
		sym, err := symbolic.Factorize(a, symbolic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		fSparse, err := Factorize(a, sym, Options{ReplaceTinyPivot: true})
		if err != nil {
			t.Fatal(err)
		}
		fTail, tail, err := FactorizeDenseTail(a, sym, Options{ReplaceTinyPivot: true}, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		if tail >= n {
			t.Fatalf("trial %d: dense tail never triggered (n=%d)", trial, n)
		}
		// The head columns, and the head rows of U in the tail columns,
		// come from the one column step both entry points share: the same
		// bits. The dense tail block eliminates right-looking and agrees
		// to round-off.
		scale := a.MaxAbs()
		for j := 0; j < n; j++ {
			for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
				s, d := fSparse.LVal[q], fTail.LVal[q]
				if j < tail && math.Float64bits(s) != math.Float64bits(d) {
					t.Fatalf("trial %d: head L(%d,%d) = %x, Factorize %x", trial, sym.LInd[q], j, math.Float64bits(d), math.Float64bits(s))
				}
				if math.Abs(s-d) > 1e-9*scale {
					t.Fatalf("trial %d: L values diverge by %g at %d", trial, math.Abs(s-d), q)
				}
			}
			for p := sym.UPtr[j]; p < sym.UPtr[j+1]; p++ {
				s, d := fSparse.UVal[p], fTail.UVal[p]
				if sym.UInd[p] < tail && math.Float64bits(s) != math.Float64bits(d) {
					t.Fatalf("trial %d: head U(%d,%d) = %x, Factorize %x", trial, sym.UInd[p], j, math.Float64bits(d), math.Float64bits(s))
				}
				if math.Abs(s-d) > 1e-9*scale {
					t.Fatalf("trial %d: U values diverge by %g at %d", trial, math.Abs(s-d), p)
				}
			}
		}
		// And the solve must work.
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := make([]float64, n)
		a.MatVec(b, want)
		fTail.Solve(b)
		if e := sparse.RelErrInf(b, want); e > 1e-8 {
			t.Fatalf("trial %d: dense-tail solve error %g", trial, e)
		}
	}
}

func TestDenseTailNeverTriggersOnSparse(t *testing.T) {
	// A tridiagonal system stays sparse: the switch must not trigger at a
	// high threshold.
	n := 200
	tr := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Append(i, i, 3)
		if i+1 < n {
			tr.Append(i+1, i, -1)
			tr.Append(i, i+1, -1)
		}
	}
	a := tr.ToCSC()
	sym, _ := symbolic.Factorize(a, symbolic.Options{})
	_, tail, err := FactorizeDenseTail(a, sym, Options{}, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	// A tridiagonal trailing block of size m has 3m-2 entries; density
	// 0.9 only holds for m < 4, below the minimum block size.
	if tail != n {
		t.Errorf("dense tail triggered at %d on a tridiagonal matrix", tail)
	}
}

func TestDenseTailZeroPivotPolicy(t *testing.T) {
	a := sparse.FromDense([][]float64{
		{0, 1, 1, 1},
		{1, 0, 1, 1},
		{1, 1, 0.5, 1},
		{1, 1, 1, 0.5},
	})
	sym, _ := symbolic.Factorize(a, symbolic.Options{})
	if _, _, err := FactorizeDenseTail(a, sym, Options{}, 0.5); err == nil {
		t.Error("zero pivot accepted with replacement off")
	}
	f, _, err := FactorizeDenseTail(a, sym, Options{ReplaceTinyPivot: true}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if f.TinyPivots == 0 {
		t.Error("no tiny pivots recorded")
	}
}

// TestDenseTailSharedSymbolic factors through one symbolic.Result from
// several goroutines, as NewWithSymbolic's callers do: the structure is
// read-only to every engine (the race detector is the assertion).
func TestDenseTailSharedSymbolic(t *testing.T) {
	a := arrowToDense(rand.New(rand.NewSource(92)), 80, 14)
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	fps := make([]uint64, 4)
	for g := range fps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, _, err := FactorizeDenseTail(a, sym, Options{ReplaceTinyPivot: true}, 0.6)
			if err != nil {
				t.Error(err)
				return
			}
			fps[g] = f.Fingerprint()
		}()
	}
	wg.Wait()
	for g, fp := range fps {
		if fp != fps[0] {
			t.Errorf("goroutine %d: fingerprint %x, goroutine 0 %x", g, fp, fps[0])
		}
	}
}
