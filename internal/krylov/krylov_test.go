package krylov

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"gesp/internal/matgen"
	"gesp/internal/sparse"
)

func laplacian2D(nx int) *sparse.CSC {
	rng := rand.New(rand.NewSource(1))
	return matgen.ConvectionDiffusion2D(nx, nx, 0.8, 0.3, rng)
}

func rhsFor(a *sparse.CSC, want []float64) []float64 {
	b := make([]float64, a.Rows)
	a.MatVec(b, want)
	return b
}

func TestILU0ExactOnNoFillMatrix(t *testing.T) {
	// Tridiagonal: elimination produces no fill, so ILU(0) IS the exact
	// LU and one application solves the system to machine precision.
	n := 60
	tr := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Append(i, i, 3)
		if i+1 < n {
			tr.Append(i+1, i, -1)
			tr.Append(i, i+1, -1)
		}
	}
	a := tr.ToCSC()
	p, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i%7) - 3
	}
	x := rhsFor(a, want)
	p.Apply(x)
	if e := sparse.RelErrInf(x, want); e > 1e-12 {
		t.Errorf("ILU0 on tridiagonal not exact: error %g", e)
	}
}

func TestILU0BreaksOnZeroDiagonal(t *testing.T) {
	a := sparse.FromDense([][]float64{
		{0, 1},
		{1, 1},
	})
	if _, err := NewILU0(a); !errors.Is(err, ErrILUBreakdown) {
		t.Errorf("got %v, want ErrILUBreakdown", err)
	}
}

func TestGMRESUnpreconditioned(t *testing.T) {
	a := laplacian2D(14)
	n := a.Rows
	want := make([]float64, n)
	for i := range want {
		want[i] = 1
	}
	b := rhsFor(a, want)
	x := make([]float64, n)
	_, st := GMRES(a, Identity{}, x, b, Options{Tol: 1e-10, MaxIter: 2000})
	if !st.Converged {
		t.Fatalf("GMRES did not converge: resid %g after %d iters", st.Residual, st.Iterations)
	}
	if e := sparse.RelErrInf(x, want); e > 1e-7 {
		t.Errorf("error %g", e)
	}
}

func TestGMRESWithILUConvergesFaster(t *testing.T) {
	a := laplacian2D(20)
	n := a.Rows
	want := make([]float64, n)
	for i := range want {
		want[i] = float64(i%5) + 1
	}
	b := rhsFor(a, want)

	xPlain := make([]float64, n)
	_, stPlain := GMRES(a, Identity{}, xPlain, b, Options{Tol: 1e-10, MaxIter: 3000})

	p, err := NewILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	xPrec := make([]float64, n)
	_, stPrec := GMRES(a, p, xPrec, b, Options{Tol: 1e-10, MaxIter: 3000})
	if !stPrec.Converged {
		t.Fatalf("ILU-GMRES did not converge: %g", stPrec.Residual)
	}
	if stPrec.Iterations >= stPlain.Iterations {
		t.Errorf("ILU did not accelerate GMRES: %d vs %d iterations", stPrec.Iterations, stPlain.Iterations)
	}
	if e := sparse.RelErrInf(xPrec, want); e > 1e-7 {
		t.Errorf("error %g", e)
	}
	t.Logf("GMRES iterations: plain=%d ilu=%d", stPlain.Iterations, stPrec.Iterations)
}

func TestGMRESRestartIndependence(t *testing.T) {
	a := laplacian2D(12)
	n := a.Rows
	want := make([]float64, n)
	for i := range want {
		want[i] = 1
	}
	b := rhsFor(a, want)
	for _, restart := range []int{5, 20, 100} {
		x := make([]float64, n)
		_, st := GMRES(a, Identity{}, x, b, Options{Tol: 1e-9, MaxIter: 5000, Restart: restart})
		if !st.Converged {
			t.Errorf("restart=%d: no convergence (resid %g)", restart, st.Residual)
			continue
		}
		if e := sparse.RelErrInf(x, want); e > 1e-6 {
			t.Errorf("restart=%d: error %g", restart, e)
		}
	}
}

func TestSolversHandleZeroRHS(t *testing.T) {
	a := laplacian2D(6)
	n := a.Rows
	b := make([]float64, n)
	x := make([]float64, n)
	_, st := GMRES(a, Identity{}, x, b, Options{})
	if !st.Converged {
		t.Error("GMRES on zero rhs did not converge instantly")
	}
}

func TestGMRESCancelStopsTheSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := laplacian2D(8)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	polls := 0
	_, st := GMRES(a, Identity{}, x, b, Options{
		Tol:     1e-14,
		MaxIter: 1000,
		Cancel:  func() bool { polls++; return polls > 3 },
	})
	if !st.Canceled {
		t.Fatal("Canceled not set after Cancel returned true")
	}
	if st.Converged {
		t.Fatal("canceled solve claims convergence")
	}
	if st.Iterations > 10 {
		t.Fatalf("solve ran %d iterations after cancellation", st.Iterations)
	}
}

// nanPreconditioner poisons every vector it touches — the stand-in for
// NaN-corrupted LU factors used as a preconditioner.
type nanPreconditioner struct{}

func (nanPreconditioner) Apply(x []float64) {
	for i := range x {
		x[i] = math.NaN()
	}
}

func TestIterativeSolversBailOnNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := laplacian2D(6)
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	_, st := GMRES(a, nanPreconditioner{}, x, b, Options{MaxIter: 1000})
	if st.Converged {
		t.Fatal("GMRES claims convergence through a NaN preconditioner")
	}
	if st.Iterations > 2 {
		t.Fatalf("GMRES spun %d iterations on NaN garbage instead of bailing", st.Iterations)
	}
}
