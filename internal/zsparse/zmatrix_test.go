package zsparse

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randomZ(rng *rand.Rand, n int, density float64) *CSC {
	t := NewTriplet(n, n)
	for j := 0; j < n; j++ {
		t.Append(j, j, complex(2+rng.Float64(), rng.Float64()))
		for i := 0; i < n; i++ {
			if i != j && rng.Float64() < density {
				t.Append(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
		}
	}
	return t.ToCSC()
}

func TestTripletDuplicatesSum(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Append(0, 0, complex(1, 2))
	tr.Append(0, 0, complex(3, -1))
	tr.Append(1, 1, complex(0, 1))
	a := tr.ToCSC()
	if got := a.At(0, 0); got != complex(4, 1) {
		t.Errorf("At(0,0) = %v, want (4+1i)", got)
	}
	if a.Nnz() != 2 {
		t.Errorf("nnz = %d", a.Nnz())
	}
}

func TestMatVecResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomZ(rng, 20, 0.2)
	x := make([]complex128, 20)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b := make([]complex128, 20)
	a.MatVec(b, x)
	r := make([]complex128, 20)
	a.Residual(r, b, x)
	for i := range r {
		if cmplx.Abs(r[i]) > 1e-12 {
			t.Fatalf("residual of exact product nonzero at %d: %v", i, r[i])
		}
	}
}

func TestNorm1(t *testing.T) {
	tr := NewTriplet(2, 2)
	tr.Append(0, 0, complex(3, 4)) // |.| = 5
	tr.Append(1, 0, complex(0, 2))
	tr.Append(1, 1, complex(1, 0))
	a := tr.ToCSC()
	if got := a.Norm1(); got != 7 {
		t.Errorf("Norm1 = %g, want 7", got)
	}
}

func TestQuantumChemProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := QuantumChem(5, 4, 3, complex(0.5, 1), rng)
	if a.Rows != 60 {
		t.Fatalf("n = %d", a.Rows)
	}
	// Full diagonal (σ − onsite never vanishes with Im σ > 0).
	for j := 0; j < a.Cols; j++ {
		if a.At(j, j) == 0 {
			t.Fatalf("zero diagonal at %d", j)
		}
		if imag(a.At(j, j)) == 0 {
			t.Fatalf("diagonal %d lost the complex shift", j)
		}
	}
	// Unsymmetric values.
	asym := false
	for j := 0; j < a.Cols && !asym; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowInd[k]
			if i != j && a.At(j, i) != a.Val[k] {
				asym = true
				break
			}
		}
	}
	if !asym {
		t.Error("quantum chemistry matrix came out symmetric")
	}
}

func TestRelErrAndNormInf(t *testing.T) {
	x := []complex128{complex(1, 0), complex(0, 2)}
	y := []complex128{complex(1, 0), complex(0, 1)}
	if got := VecNormInf(x); got != 2 {
		t.Errorf("VecNormInf = %g", got)
	}
	if got := RelErrInf(x, y); got != 1 {
		t.Errorf("RelErrInf = %g, want 1 (|2i-1i|/|1|)", got)
	}
}

// Berr keeps refine.ResidualBerr's contract: a NaN row gives NaN and an
// overflowed residual +Inf, where skipping them would report a small berr.
func TestBerrNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := randomZ(rng, 30, 0.1)
	x := make([]complex128, 30)
	for i := range x {
		x[i] = complex(float64(i), -float64(i))
	}
	b := make([]complex128, 30)
	a.MatVec(b, x)
	poison := func(v []complex128, i int, z complex128) []complex128 {
		w := append([]complex128(nil), v...)
		w[i] = z
		return w
	}
	nan := complex(math.NaN(), 0)
	if be := Berr(a, x, poison(b, 3, nan)); !math.IsNaN(be) {
		t.Errorf("NaN in b: berr %g, want NaN", be)
	}
	if be := Berr(a, poison(x, 3, nan), b); !math.IsNaN(be) {
		t.Errorf("NaN in x: berr %g, want NaN", be)
	}
	if be := Berr(a, poison(x, 3, 1e308), b); !math.IsInf(be, 1) {
		t.Errorf("overflowed residual: berr %g, want +Inf", be)
	}
}
