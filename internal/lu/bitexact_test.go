package lu

import (
	"math"
	"math/rand"
	"testing"

	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// randomSystem builds a diagonally strong random matrix with its
// symbolic structure (supernodes capped at 8 columns).
func randomSystem(rng *rand.Rand, n int, density float64) (*sparse.CSC, *symbolic.Result) {
	tr := sparse.NewTriplet(n, n)
	for j := 0; j < n; j++ {
		tr.Append(j, j, 4+rng.Float64())
		for i := 0; i < n; i++ {
			if i != j && rng.Float64() < density {
				tr.Append(i, j, rng.NormFloat64()*0.5)
			}
		}
	}
	a := tr.ToCSC()
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 8})
	if err != nil {
		panic(err)
	}
	return a, sym
}

// plainLoopFactorize is the left-looking GESP factorization written
// with plain loops only — no internal/kernels call — as the engine-level
// oracle for Factorize (tiny pivots replaced at sqrt(eps)·‖A‖₁).
func plainLoopFactorize(a *sparse.CSC, sym *symbolic.Result) *Factors {
	n := sym.N
	thresh := math.Sqrt(Eps) * a.Norm1()
	f := &Factors{Sym: sym, LVal: make([]float64, sym.NnzL()), UVal: make([]float64, sym.NnzU())}
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			w[a.RowInd[k]] = a.Val[k]
		}
		diag := sym.UPtr[j+1] - 1
		for p := sym.UPtr[j]; p < diag; p++ {
			k := sym.UInd[p]
			ukj := w[k]
			f.UVal[p] = ukj
			w[k] = 0
			if ukj == 0 {
				continue
			}
			for q := sym.LPtr[k]; q < sym.LPtr[k+1]; q++ {
				w[sym.LInd[q]] -= f.LVal[q] * ukj
			}
		}
		piv := w[j]
		w[j] = 0
		if math.Abs(piv) < thresh {
			if piv == 0 {
				piv = thresh
			} else {
				piv = math.Copysign(thresh, piv)
			}
		}
		f.UVal[diag] = piv
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			i := sym.LInd[q]
			f.LVal[q] = w[i] / piv
			w[i] = 0
		}
	}
	return f
}

// TestColumnFactorizeMatchesPlainLoop is the engine-level statement of
// the kernels' bit-exactness contract: Factorize, whose inner loop is
// kernels.SpAxpy, produces the bits of the plain-loop factorization.
// (The blocked engine's counterpart — FactorizeBlocked against the
// 1-rank distributed worker — lives in internal/dist.)
func TestColumnFactorizeMatchesPlainLoop(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 4; trial++ {
		a, sym := randomSystem(rng, 80+40*trial, 0.06)
		col, err := Factorize(a, sym, Options{ReplaceTinyPivot: true})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := col.Fingerprint(), plainLoopFactorize(a, sym).Fingerprint(); got != want {
			t.Errorf("trial %d: Factorize fingerprint %x, plain loop %x", trial, got, want)
		}
	}
}

// TestSolveMultiMatchesSolve pins the batched multi-RHS solve bitwise
// to repeated single-RHS solves, zeros in the right-hand sides included.
func TestSolveMultiMatchesSolve(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(48))
	a, sym := randomSystem(rng, 120, 0.06)
	f, err := Factorize(a, sym, Options{ReplaceTinyPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	n := sym.N
	const nrhs = 11
	rhs := make([]float64, n*nrhs)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
		if i%7 == 0 {
			rhs[i] = 0
		}
	}
	multi := make([]float64, len(rhs))
	copy(multi, rhs)
	f.SolveMulti(multi, nrhs)
	for r := 0; r < nrhs; r++ {
		one := make([]float64, n)
		copy(one, rhs[r*n:(r+1)*n])
		f.Solve(one)
		for i := range one {
			if math.Float64bits(one[i]) != math.Float64bits(multi[r*n+i]) {
				t.Fatalf("SolveMulti rhs %d element %d differs from Solve", r, i)
			}
		}
	}
}
