// Package zsolver is the complex-valued GESP driver: the same static
// pipeline as internal/core — equilibrate, permute large moduli to the
// diagonal, order symmetrically, factor without pivoting (tiny pivots
// replaced), refine — over complex128 arithmetic. All structural stages
// run on the real magnitude shadow of the matrix, so the matching,
// ordering and symbolic code is shared with the real solver verbatim.
//
// This is the capability behind the paper's §4 application report: "a
// complex unsymmetric system of order 200,000 has been solved within 2
// minutes" (quantum chemistry at LBNL).
package zsolver

import (
	"errors"
	"fmt"
	"math/cmplx"

	"gesp/internal/core"
	"gesp/internal/equil"
	"gesp/internal/lu"
	"gesp/internal/matching"
	"gesp/internal/ordering"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
	"gesp/internal/zsparse"
)

// Options mirror the real solver's toggles.
type Options struct {
	Equilibrate      bool
	RowPermute       bool
	ColScale         bool
	Ordering         ordering.Method
	ReplaceTinyPivot bool
	Refine           bool
	MaxRefine        int
	MaxSuper         int
}

// DefaultOptions returns the real solver's default configuration; the
// ordering follows core.DefaultOptions, which says why it is A+Aᵀ.
func DefaultOptions() Options {
	return Options{
		Equilibrate:      true,
		RowPermute:       true,
		ColScale:         true,
		Ordering:         core.DefaultOptions().Ordering,
		ReplaceTinyPivot: true,
		Refine:           true,
	}
}

// ErrZeroPivot mirrors lu.ErrZeroPivot for the complex factorization.
// Concrete failures are *ZeroPivotError values carrying the breaking
// column; errors.Is(err, ErrZeroPivot) matches them.
var ErrZeroPivot = errors.New("zsolver: zero pivot encountered (tiny-pivot replacement disabled)")

// ZeroPivotError mirrors lu.ZeroPivotError: the column whose pivot was
// exactly zero and the replacement threshold in force.
type ZeroPivotError struct {
	Col       int
	Threshold float64
}

func (e *ZeroPivotError) Error() string {
	return fmt.Sprintf("zsolver: column %d: zero pivot encountered (tiny-pivot replacement disabled, threshold %.6e)", e.Col, e.Threshold)
}

// Is preserves the sentinel contract: errors.Is(err, ErrZeroPivot).
func (e *ZeroPivotError) Is(target error) bool { return target == ErrZeroPivot }

// Stats summarizes the complex solve.
type Stats struct {
	N           int
	NnzA        int
	NnzLU       int
	Flops       int64
	TinyPivots  int
	RefineSteps int
	Berr        float64
	Converged   bool
}

// Solver is a factored complex system.
type Solver struct {
	opts Options
	n    int

	rowMap []int
	colMap []int
	dR, dC []float64

	ap   *zsparse.CSC
	sym  *symbolic.Result
	lVal []complex128
	uVal []complex128

	stats Stats
}

// New runs the complex GESP analysis and factorization.
func New(a *zsparse.CSC, opts Options) (*Solver, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("zsolver: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	s := &Solver{opts: opts, n: n}
	s.stats.N = n
	s.stats.NnzA = a.Nnz()

	work := a.Clone()
	s.dR = make([]float64, n)
	s.dC = make([]float64, n)
	for i := 0; i < n; i++ {
		s.dR[i] = 1
		s.dC[i] = 1
	}

	// All structural decisions run on the magnitude shadow.
	if opts.Equilibrate {
		eq, err := equil.Equilibrate(work.Magnitude())
		if err != nil {
			return nil, fmt.Errorf("zsolver: equilibration: %w", err)
		}
		if eq.NeedsScaling() {
			work.ScaleRowsCols(eq.R, eq.C)
			for i := 0; i < n; i++ {
				s.dR[i] *= eq.R[i]
				s.dC[i] *= eq.C[i]
			}
		}
	}
	s.rowMap = sparse.IdentityPerm(n)
	if opts.RowPermute {
		mc, err := matching.MaxProductMatching(work.Magnitude())
		if err != nil {
			return nil, fmt.Errorf("zsolver: large-diagonal permutation: %w", err)
		}
		dc := mc.Dc
		if !opts.ColScale {
			dc = nil
		}
		work.ScaleRowsCols(mc.Dr, dc)
		for i := 0; i < n; i++ {
			s.dR[i] *= mc.Dr[i]
			if dc != nil {
				s.dC[i] *= mc.Dc[i]
			}
		}
		work = work.PermuteRows(mc.RowPerm)
		s.rowMap = mc.RowPerm
	}
	pc := ordering.Order(work.Magnitude(), opts.Ordering)
	work = work.PermuteSym(pc)
	s.colMap = pc
	s.rowMap = sparse.ComposePerm(pc, s.rowMap)

	sym, err := symbolic.Factorize(work.Magnitude(), symbolic.Options{MaxSuper: opts.MaxSuper})
	if err != nil {
		return nil, fmt.Errorf("zsolver: symbolic: %w", err)
	}
	s.sym = sym
	s.ap = work
	s.stats.NnzLU = sym.FillLU()
	s.stats.Flops = 4 * sym.Flops // a complex mul-add is ~4 real flops

	if err := s.factorize(); err != nil {
		return nil, err
	}
	return s, nil
}

// factorize is the complex left-looking static-pivot kernel, mirroring
// lu.Factorize.
func (s *Solver) factorize() error {
	sym, a := s.sym, s.ap
	n := sym.N
	thresh := lu.TinyPivotThreshold(a.Norm1(), 0)
	s.lVal = make([]complex128, sym.NnzL())
	s.uVal = make([]complex128, sym.NnzU())
	w := make([]complex128, n)
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			w[a.RowInd[k]] = a.Val[k]
		}
		for p := sym.UPtr[j]; p < sym.UPtr[j+1]-1; p++ {
			k := sym.UInd[p]
			ukj := w[k]
			s.uVal[p] = ukj
			if ukj == 0 {
				continue
			}
			for q := sym.LPtr[k]; q < sym.LPtr[k+1]; q++ {
				w[sym.LInd[q]] -= s.lVal[q] * ukj
			}
		}
		piv := w[j]
		if cmplx.Abs(piv) < thresh {
			if !s.opts.ReplaceTinyPivot {
				if piv == 0 {
					return &ZeroPivotError{Col: j, Threshold: thresh}
				}
			} else {
				// Preserve the phase of the tiny pivot; a zero pivot gets
				// a real replacement.
				if piv == 0 {
					piv = complex(thresh, 0)
				} else {
					piv *= complex(thresh/cmplx.Abs(piv), 0)
				}
				s.stats.TinyPivots++
			}
		}
		s.uVal[sym.UPtr[j+1]-1] = piv
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			s.lVal[q] = w[sym.LInd[q]] / piv
		}
		for _, i := range sym.UColRows(j) {
			w[i] = 0
		}
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			w[sym.LInd[q]] = 0
		}
	}
	return nil
}

// solveFactored overwrites x with (LU)⁻¹·x in permuted coordinates.
func (s *Solver) solveFactored(x []complex128) {
	sym := s.sym
	for j := 0; j < sym.N; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			x[sym.LInd[q]] -= s.lVal[q] * xj
		}
	}
	for j := sym.N - 1; j >= 0; j-- {
		hi := sym.UPtr[j+1] - 1
		xj := x[j] / s.uVal[hi]
		x[j] = xj
		if xj == 0 {
			continue
		}
		for q := sym.UPtr[j]; q < hi; q++ {
			x[sym.UInd[q]] -= s.uVal[q] * xj
		}
	}
}

// Solve computes x with A·x = b in original coordinates, with iterative
// refinement when enabled.
func (s *Solver) Solve(b []complex128) ([]complex128, error) {
	if len(b) != s.n {
		return nil, fmt.Errorf("zsolver: right-hand side length %d, want %d", len(b), s.n)
	}
	bh := make([]complex128, s.n)
	for i := 0; i < s.n; i++ {
		bh[s.rowMap[i]] = complex(s.dR[i], 0) * b[i]
	}
	y := append([]complex128(nil), bh...)
	s.solveFactored(y)

	if s.opts.Refine {
		maxIter := s.opts.MaxRefine
		if maxIter <= 0 {
			maxIter = 10
		}
		prev := zsparse.Berr(s.ap, y, bh)
		s.stats.Berr = prev
		s.stats.RefineSteps = 0
		s.stats.Converged = prev <= lu.Eps
		r := make([]complex128, s.n)
		for !s.stats.Converged && s.stats.RefineSteps < maxIter {
			s.ap.Residual(r, bh, y)
			s.solveFactored(r)
			for i := range y {
				y[i] += r[i]
			}
			s.stats.RefineSteps++
			be := zsparse.Berr(s.ap, y, bh)
			s.stats.Berr = be
			if be <= lu.Eps {
				s.stats.Converged = true
				break
			}
			if be > prev/2 {
				break // stagnation, the paper's second test
			}
			prev = be
		}
	} else {
		s.stats.Berr = zsparse.Berr(s.ap, y, bh)
		s.stats.Converged = s.stats.Berr <= lu.Eps
	}

	x := make([]complex128, s.n)
	for j := 0; j < s.n; j++ {
		x[j] = complex(s.dC[j], 0) * y[s.colMap[j]]
	}
	return x, nil
}

// Stats returns solve statistics.
func (s *Solver) Stats() Stats { return s.stats }
