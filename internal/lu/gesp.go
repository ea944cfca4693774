// Package lu provides the serial numeric factorization kernels of GESP:
// the static-pivoting left-looking factorization (step (3) of the paper's
// algorithm, including tiny-pivot replacement), a Gilbert–Peierls partial
// pivoting factorization used as the accuracy baseline (the paper's
// Figure 4 compares GESP against GEPP as implemented in SuperLU), a
// blocked right-looking variant sharing the distributed algorithm's
// structure, and the triangular solves.
package lu

import (
	"errors"
	"fmt"
	"math"

	"gesp/internal/kernels"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// Eps is the IEEE double-precision machine epsilon used throughout the
// paper's experiments.
const Eps = 2.220446049250313e-16

// TinyPivotThreshold is step (3)'s replacement threshold, shared by every
// engine: override (an Options.Threshold) when nonzero, otherwise the
// paper's sqrt(eps)·‖A‖₁ from the matrix 1-norm.
func TinyPivotThreshold(norm1, override float64) float64 {
	if override != 0 {
		return override
	}
	return math.Sqrt(Eps) * norm1
}

// ErrZeroPivot is returned when elimination meets an exactly zero pivot
// and tiny-pivot replacement is disabled — the failure mode of plain
// no-pivoting Gaussian elimination on 27 of the paper's 53 matrices.
// Concrete failures are *ZeroPivotError values, which carry the column
// where elimination broke; errors.Is(err, ErrZeroPivot) matches them.
var ErrZeroPivot = errors.New("lu: zero pivot encountered (tiny-pivot replacement disabled)")

// ZeroPivotError reports where static pivoting broke: the column whose
// pivot was exactly zero and the replacement threshold that was in
// force (sqrt(eps)·||A|| unless overridden). The resilience ladder and
// diagnostics use the column to report the failure site; errors.As
// extracts it, errors.Is(err, ErrZeroPivot) still matches.
type ZeroPivotError struct {
	Col       int
	Threshold float64
}

func (e *ZeroPivotError) Error() string {
	return fmt.Sprintf("lu: column %d: zero pivot encountered (tiny-pivot replacement disabled, threshold %.6e)", e.Col, e.Threshold)
}

// Is makes errors.Is(err, ErrZeroPivot) succeed for typed zero-pivot
// failures, preserving the sentinel contract existing callers rely on.
func (e *ZeroPivotError) Is(target error) bool { return target == ErrZeroPivot }

// Options control the static factorization.
type Options struct {
	// ReplaceTinyPivot enables step (3)'s fix: any pivot smaller in
	// magnitude than Threshold is set to ±Threshold.
	ReplaceTinyPivot bool
	// Threshold overrides the replacement threshold; 0 means the paper's
	// sqrt(eps)*||A|| (1-norm).
	Threshold float64
	// Aggressive replaces tiny pivots with the largest magnitude of the
	// current column instead of sqrt(eps)*||A|| (the paper's future-work
	// proposal); the resulting rank-one perturbations are recorded in
	// PivotMods for Sherman–Morrison–Woodbury recovery.
	Aggressive bool
}

// PivotMod records one perturbed pivot: position Col, original value Old,
// stored value New. The factored matrix is A + Σ (New-Old)·e_col·e_colᵀ.
type PivotMod struct {
	Col      int
	Old, New float64
}

// Factors holds a computed LU factorization in the static structure:
// A ≈ L·U with L unit lower triangular (strictly-lower entries stored,
// parallel to sym.LInd) and U upper triangular including the diagonal
// (parallel to sym.UInd).
type Factors struct {
	Sym  *symbolic.Result
	LVal []float64
	UVal []float64
	// TinyPivots counts replaced pivots; PivotMods records them.
	TinyPivots int
	PivotMods  []PivotMod
	// ColAMax[j] is max |A(i,j)| of the input, retained for pivot-growth
	// diagnostics.
	ColAMax []float64
}

// Factorize runs the GESP numeric factorization of a (already permuted
// and scaled) using the static structure sym. It fails only on an exactly
// zero pivot with replacement disabled.
func Factorize(a *sparse.CSC, sym *symbolic.Result, opts Options) (*Factors, error) {
	n := sym.N
	if a.Rows != n || a.Cols != n {
		return nil, fmt.Errorf("lu: matrix is %dx%d, symbolic structure is for n=%d", a.Rows, a.Cols, n)
	}
	thresh := TinyPivotThreshold(a.Norm1(), opts.Threshold)
	f := &Factors{
		Sym:     sym,
		LVal:    make([]float64, sym.NnzL()),
		UVal:    make([]float64, sym.NnzU()),
		ColAMax: make([]float64, n),
	}
	w := make([]float64, n) // sparse accumulator

	for j := 0; j < n; j++ {
		// Scatter A(:,j); record the column max for growth statistics.
		cmax := 0.0
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			w[a.RowInd[k]] = a.Val[k]
			if v := math.Abs(a.Val[k]); v > cmax {
				cmax = v
			}
		}
		f.ColAMax[j] = cmax

		// Left-looking updates: U rows ascending is a topological order.
		// Each update is one sparse-column gather-scatter, the panel
		// factor's hot loop, run through the shared kernel.
		urows := sym.UColRows(j)
		for p := sym.UPtr[j]; p < sym.UPtr[j+1]-1; p++ { // skip diagonal (last)
			k := sym.UInd[p]
			ukj := w[k]
			f.UVal[p] = ukj
			if ukj == 0 {
				continue
			}
			lo, hi := sym.LPtr[k], sym.LPtr[k+1]
			kernels.SpAxpy(w, sym.LInd[lo:hi], f.LVal[lo:hi], ukj)
		}

		// Pivot with the static-pivoting fix.
		piv := w[j]
		if math.Abs(piv) < thresh {
			if !opts.ReplaceTinyPivot {
				if piv == 0 {
					return nil, &ZeroPivotError{Col: j, Threshold: thresh}
				}
			} else {
				repl := thresh
				if opts.Aggressive && cmax > thresh {
					repl = cmax
				}
				newPiv := math.Copysign(repl, piv)
				if piv == 0 {
					newPiv = repl
				}
				f.PivotMods = append(f.PivotMods, PivotMod{Col: j, Old: piv, New: newPiv})
				f.TinyPivots++
				piv = newPiv
			}
		}
		f.UVal[sym.UPtr[j+1]-1] = piv

		// Scale the strictly-lower part into L.
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			f.LVal[q] = w[sym.LInd[q]] / piv
		}

		// Clear the accumulator along the column pattern.
		for _, i := range urows {
			w[i] = 0
		}
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			w[sym.LInd[q]] = 0
		}
	}
	return f, nil
}

// SolveL overwrites x with L⁻¹x (forward substitution, implied unit
// diagonal).
//
//gesp:hotpath
func (f *Factors) SolveL(x []float64) {
	sym := f.Sym
	for j := 0; j < sym.N; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		lo, hi := sym.LPtr[j], sym.LPtr[j+1]
		kernels.SpAxpy(x, sym.LInd[lo:hi], f.LVal[lo:hi], xj)
	}
}

// SolveU overwrites x with U⁻¹x (backward substitution).
//
//gesp:hotpath
func (f *Factors) SolveU(x []float64) {
	sym := f.Sym
	for j := sym.N - 1; j >= 0; j-- {
		hi := sym.UPtr[j+1] - 1
		xj := x[j] / f.UVal[hi] // diagonal is the last entry
		x[j] = xj
		if xj == 0 {
			continue
		}
		lo := sym.UPtr[j]
		kernels.SpAxpy(x, sym.UInd[lo:hi], f.UVal[lo:hi], xj)
	}
}

// Solve overwrites x (initially b) with A⁻¹b using the factors.
func (f *Factors) Solve(x []float64) {
	f.SolveL(x)
	f.SolveU(x)
}

// SolveLT overwrites x with L⁻ᵀx, and SolveUT with U⁻ᵀx; both are needed
// by the Hager condition estimator, which solves with Aᵀ.
//
//gesp:hotpath
func (f *Factors) SolveLT(x []float64) {
	sym := f.Sym
	for j := sym.N - 1; j >= 0; j-- {
		lo, hi := sym.LPtr[j], sym.LPtr[j+1]
		x[j] = kernels.SpDotSub(x[j], sym.LInd[lo:hi], f.LVal[lo:hi], x)
	}
}

// SolveUT overwrites x with U⁻ᵀx.
//
//gesp:hotpath
func (f *Factors) SolveUT(x []float64) {
	sym := f.Sym
	for j := 0; j < sym.N; j++ {
		lo, hi := sym.UPtr[j], sym.UPtr[j+1]-1
		s := kernels.SpDotSub(x[j], sym.UInd[lo:hi], f.UVal[lo:hi], x)
		x[j] = s / f.UVal[hi]
	}
}

// SolveT overwrites x with A⁻ᵀx.
func (f *Factors) SolveT(x []float64) {
	f.SolveUT(x)
	f.SolveLT(x)
}

// ReciprocalPivotGrowth returns min_j ( max|A(:,j)| / max|(L+U)(:,j)| ),
// the SuperLU stability diagnostic: values near 1 mean no growth, tiny
// values signal instability.
func (f *Factors) ReciprocalPivotGrowth() float64 {
	sym := f.Sym
	rpg := math.Inf(1)
	for j := 0; j < sym.N; j++ {
		um := 0.0
		for p := sym.UPtr[j]; p < sym.UPtr[j+1]; p++ {
			if v := math.Abs(f.UVal[p]); v > um {
				um = v
			}
		}
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			if v := math.Abs(f.LVal[q] * f.UVal[sym.UPtr[j+1]-1]); v > um {
				um = v
			}
		}
		if um == 0 {
			continue
		}
		if r := f.ColAMax[j] / um; r < rpg {
			rpg = r
		}
	}
	if math.IsInf(rpg, 1) {
		return 1
	}
	return rpg
}
