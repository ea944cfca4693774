// Package zsolver is the complex-valued GESP driver. Steps (1)–(2) —
// equilibration, the large-diagonal matching, the symmetric ordering and
// the symbolic structure — read only magnitudes and structure, so they are
// internal/core's analysis run on the real magnitude shadow of the matrix;
// this package keeps only the complex numeric phase: the static-pivot
// factorization (tiny pivots replaced) and refinement in complex128.
//
// This is the capability behind the paper's §4 application report: "a
// complex unsymmetric system of order 200,000 has been solved within 2
// minutes" (quantum chemistry at LBNL).
package zsolver

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"gesp/internal/core"
	"gesp/internal/lu"
	"gesp/internal/refine"
	"gesp/internal/symbolic"
	"gesp/internal/zsparse"
)

// Solver is a factored complex system.
type Solver struct {
	opts core.Options
	n    int

	rowMap []int
	colMap []int
	dR, dC []float64

	ap   *zsparse.CSC
	sym  *symbolic.Result
	lVal []complex128
	uVal []complex128

	stats core.Stats
}

// New runs core's GESP analysis on the magnitude shadow of a, writes a's
// values into the analysis's pattern through its value map, and factors
// them. Options with no complex counterpart (AggressivePivot,
// ExtraPrecision, Resilience, Workers > 1) are refused. Stats.Flops
// counts real flops: a complex multiply-add is about 4 of them.
func New(a *zsparse.CSC, opts core.Options) (*Solver, error) {
	if opts.AggressivePivot || opts.ExtraPrecision || opts.Resilience != nil || opts.Workers > 1 {
		return nil, errors.New("zsolver: no complex counterpart for AggressivePivot, ExtraPrecision, Resilience or Workers > 1")
	}
	an, err := core.NewAnalysis(a.Magnitude(), opts)
	if err != nil {
		return nil, fmt.Errorf("zsolver: %w", err)
	}
	s := &Solver{opts: opts, n: a.Rows, sym: an.Symbolic(), stats: an.Stats()}
	var dst []int32
	s.rowMap, s.colMap, s.dR, s.dC, dst = an.Mapping()
	pat := an.PermutedMatrix()
	s.ap = &zsparse.CSC{Rows: s.n, Cols: s.n, ColPtr: pat.ColPtr, RowInd: pat.RowInd, Val: make([]complex128, len(dst))}
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			s.ap.Val[dst[k]] = a.Val[k] * complex(s.dR[a.RowInd[k]]*s.dC[j], 0)
		}
	}
	s.stats.Flops *= 4
	if err := s.factorize(); err != nil {
		return nil, fmt.Errorf("zsolver: factorization: %w", err)
	}
	return s, nil
}

// factorize is the complex left-looking static-pivot kernel, the plain
// one-column-at-a-time loop lu.Factorize's bits are defined by.
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
					return &lu.ZeroPivotError{Col: j, Threshold: thresh}
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
// refinement when enabled, stopped by refine.Stop as the real solver's is.
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

	maxIter := s.opts.MaxRefine
	if maxIter <= 0 {
		maxIter = 10
	}
	st := &s.stats
	be := zsparse.Berr(s.ap, y, bh)
	st.RefineSteps, st.Berr, st.BerrHistory = 0, be, []float64{be}
	exit, stop := refine.Stop(be, math.Inf(1), lu.Eps, false)
	r := make([]complex128, s.n)
	for s.opts.Refine && !stop && st.RefineSteps < maxIter {
		s.ap.Residual(r, bh, y)
		s.solveFactored(r)
		for i := range y {
			y[i] += r[i]
		}
		st.RefineSteps++
		prev := be
		be = zsparse.Berr(s.ap, y, bh)
		st.Berr, st.BerrHistory = be, append(st.BerrHistory, be)
		exit, stop = refine.Stop(be, prev, lu.Eps, false)
	}
	st.Converged = stop && exit == refine.ExitConverged

	x := make([]complex128, s.n)
	for j := 0; j < s.n; j++ {
		x[j] = complex(s.dC[j], 0) * y[s.colMap[j]]
	}
	return x, nil
}

// Stats returns the analysis statistics core reported for the magnitude
// shadow, with the complex factorization's Flops and TinyPivots and the
// last Solve's refinement outcome.
func (s *Solver) Stats() core.Stats { return s.stats }
