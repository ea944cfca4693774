package refine

import (
	"math"

	"gesp/internal/lu"
	"gesp/internal/sparse"
)

// InvNormEst1 estimates ||M⁻¹||₁ with Hager's algorithm (the core of
// LAPACK's xLACON), using only solves with M and Mᵀ. The estimate is a
// lower bound that is almost always within a small factor of the truth.
// The second result reports whether the power iteration reached its
// fixed point (z_max ≤ zᵀx) within the iteration budget; a false means
// the estimate is still a valid lower bound but may be further from the
// truth than usual, which core.CondEst surfaces in its Stats.
func InvNormEst1(sys System, n int) (est float64, converged bool) {
	if n == 0 {
		return 0, true
	}
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	for iter := 0; iter < 5; iter++ {
		y := append([]float64(nil), x...)
		sys.Solve(y)
		est = sparse.VecNorm1(y)
		// ξ = sign(y)
		for i := range y {
			if y[i] >= 0 {
				y[i] = 1
			} else {
				y[i] = -1
			}
		}
		sys.SolveT(y)
		// z = M⁻ᵀ ξ; if ||z||_∞ <= zᵀx the estimate has converged.
		jmax, zmax := 0, 0.0
		for i, v := range y {
			if a := math.Abs(v); a > zmax {
				zmax, jmax = a, i
			}
		}
		ztx := 0.0
		for i := range y {
			ztx += y[i] * x[i]
		}
		if zmax <= ztx {
			converged = true
			break
		}
		for i := range x {
			x[i] = 0
		}
		x[jmax] = 1
	}
	// Alternating lower bound as in xLACON's final safeguard.
	for i := range x {
		x[i] = math.Pow(-1, float64(i)) * (1 + float64(i)/float64(max(n-1, 1)))
	}
	sys.Solve(x)
	if alt := 2 * sparse.VecNorm1(x) / (3 * float64(n)); alt > est {
		est = alt
	}
	return est, converged
}

// Cond1Est estimates the 1-norm condition number κ₁(A) = ||A||₁·||A⁻¹||₁
// using the factorization in sys. The second result is InvNormEst1's
// convergence flag.
func Cond1Est(a *sparse.CSC, sys System) (float64, bool) {
	inv, ok := InvNormEst1(sys, a.Rows)
	return a.Norm1() * inv, ok
}

// ForwardErrorBound computes the componentwise forward error bound of
// LAPACK's xGERFS: an estimate of
//
//	|| |A⁻¹|·( |r| + (n+1)·eps·(|A|·|x| + |b|) ) ||_∞ / ||x||_∞ ,
//
// which bounds ||x - x_true||_∞ / ||x||_∞ for the computed solution. This
// is the "most expensive step after factorization" noted at the paper's
// Figure 6 (it runs several extra triangular solves).
func ForwardErrorBound(a *sparse.CSC, sys System, x, b []float64) float64 {
	n := len(b)
	if n == 0 {
		return 0
	}
	r := make([]float64, n)
	w := make([]float64, n)
	ResidualBerr(a, r, w, x, b, false) // leaves |A|·|x| in w
	nzEps := float64(n+1) * lu.Eps
	for i := 0; i < n; i++ {
		w[i] = math.Abs(r[i]) + nzEps*(w[i]+math.Abs(b[i]))
	}
	// Estimate ||A⁻¹·diag(w)||_∞ = ||diag(w)·A⁻ᵀ||₁ with Hager's method
	// applied to the operator N = diag(w)·A⁻ᵀ, as xGERFS does.
	weighted := &weightedSystem{sys: sys, w: w}
	est, _ := InvNormEst1(weighted, n) // a non-converged estimate is still a valid bound here
	nx := sparse.VecNormInf(x)
	if nx == 0 {
		return est
	}
	return est / nx
}

// weightedSystem is the operator N = diag(w)·A⁻ᵀ whose 1-norm equals
// ||A⁻¹·diag(w)||_∞: Solve applies N, SolveT applies Nᵀ = A⁻¹·diag(w).
type weightedSystem struct {
	sys System
	w   []float64
}

func (ws *weightedSystem) Solve(x []float64) {
	ws.sys.SolveT(x)
	for i := range x {
		x[i] *= ws.w[i]
	}
}

func (ws *weightedSystem) SolveT(x []float64) {
	for i := range x {
		x[i] *= ws.w[i]
	}
	ws.sys.Solve(x)
}
