package krylov

import (
	"math"

	"gesp/internal/sparse"
)

// Options control the iterative solvers.
type Options struct {
	// Tol is the relative residual target ‖b−Ax‖/‖b‖; 0 means 1e-10.
	Tol float64
	// MaxIter bounds the total iterations; 0 means 1000.
	MaxIter int
	// Restart is GMRES's restart length m; 0 means 50.
	Restart int
	// Cancel, when non-nil, is polled once per iteration; returning true
	// stops the solve with the current iterate and Canceled set. The
	// resilience ladder and the serve layer wire context deadlines
	// through it so a runaway Krylov solve cannot outlive its request.
	Cancel func() bool
}

// Stats reports an iterative solve.
type Stats struct {
	Iterations int
	Residual   float64 // final relative residual
	Converged  bool
	// Canceled reports the solve was stopped by Options.Cancel.
	Canceled bool
}

func (o Options) fill() Options {
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.MaxIter == 0 {
		o.MaxIter = 1000
	}
	if o.Restart == 0 {
		o.Restart = 50
	}
	return o
}

// GMRES solves A·x = b with left-preconditioned restarted GMRES(m),
// starting from x (which is updated in place and also returned).
func GMRES(a *sparse.CSC, m Preconditioner, x, b []float64, opts Options) ([]float64, Stats) {
	opts = opts.fill()
	n := len(b)
	restart := opts.Restart
	if restart > n {
		restart = n
	}

	prec := func(v []float64) {
		m.Apply(v)
	}
	bn := append([]float64(nil), b...)
	prec(bn)
	bnorm := norm2(bn)
	if bnorm == 0 {
		bnorm = 1
	}

	r := make([]float64, n)
	w := make([]float64, n)
	v := make([][]float64, restart+1)
	for i := range v {
		v[i] = make([]float64, n)
	}
	h := make([][]float64, restart+1)
	for i := range h {
		h[i] = make([]float64, restart)
	}
	cs := make([]float64, restart)
	sn := make([]float64, restart)
	g := make([]float64, restart+1)

	st := Stats{}
	for st.Iterations < opts.MaxIter {
		// r = M⁻¹(b − A·x)
		a.Residual(r, b, x)
		prec(r)
		beta := norm2(r)
		st.Residual = beta / bnorm
		if st.Residual <= opts.Tol {
			st.Converged = true
			return x, st
		}
		if math.IsNaN(st.Residual) || math.IsInf(st.Residual, 0) {
			// A poisoned operator or preconditioner (NaN/Inf factors)
			// contaminates every further iterate; bail immediately
			// instead of spinning to MaxIter on garbage.
			return x, st
		}
		if opts.Cancel != nil && opts.Cancel() {
			st.Canceled = true
			return x, st
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta
		for i := 0; i < n; i++ {
			v[0][i] = r[i] / beta
		}
		k := 0
		for ; k < restart && st.Iterations < opts.MaxIter; k++ {
			if opts.Cancel != nil && opts.Cancel() {
				st.Canceled = true
				break
			}
			st.Iterations++
			// w = M⁻¹·A·v_k
			a.MatVec(w, v[k])
			prec(w)
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				h[i][k] = dot(w, v[i])
				for q := 0; q < n; q++ {
					w[q] -= h[i][k] * v[i][q]
				}
			}
			h[k+1][k] = norm2(w)
			if h[k+1][k] != 0 {
				for q := 0; q < n; q++ {
					v[k+1][q] = w[q] / h[k+1][k]
				}
			}
			// Apply accumulated Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			// New rotation eliminating h[k+1][k].
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k], sn[k] = h[k][k]/denom, h[k+1][k]/denom
			}
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			st.Residual = math.Abs(g[k+1]) / bnorm
			if st.Residual <= opts.Tol {
				k++
				break
			}
		}
		// Solve the upper-triangular system and update x.
		y := make([]float64, k)
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h[i][j] * y[j]
			}
			if h[i][i] != 0 {
				y[i] = s / h[i][i]
			}
		}
		for i := 0; i < k; i++ {
			for q := 0; q < n; q++ {
				x[q] += y[i] * v[i][q]
			}
		}
		if st.Canceled {
			return x, st
		}
		if st.Residual <= opts.Tol {
			// Recompute the true residual to confirm.
			a.Residual(r, b, x)
			prec(r)
			st.Residual = norm2(r) / bnorm
			if st.Residual <= opts.Tol*10 {
				st.Converged = true
				return x, st
			}
		}
	}
	return x, st
}
