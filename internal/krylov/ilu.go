// Package krylov provides a preconditioned iterative solver — ILU(0) with
// restarted GMRES(m). The paper's related-work section highlights the
// Duff–Koster result that permuting large entries to the diagonal (GESP's
// step (1)) "substantially improves" the convergence of ILU-preconditioned
// iterative methods; this package exists to reproduce that observation on
// the testbed (see experiments.IterativeAblation).
package krylov

import (
	"errors"
	"fmt"
	"math"

	"gesp/internal/sparse"
)

// ErrILUBreakdown is returned when ILU(0) meets a zero pivot — the
// typical failure on matrices with zero or tiny diagonals, and exactly
// what MC64 preprocessing repairs.
var ErrILUBreakdown = errors.New("krylov: zero pivot in ILU(0)")

// ILU0 is an incomplete LU factorization with zero fill: L and U live on
// the sparsity pattern of A.
type ILU0 struct {
	n    int
	lPtr []int // strictly-lower entries per column
	lInd []int
	lVal []float64
	uPtr []int // upper entries per column including the diagonal (last)
	uInd []int
	uVal []float64
}

// NewILU0 computes the ILU(0) factorization of a square matrix.
func NewILU0(a *sparse.CSC) (*ILU0, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("krylov: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	p := &ILU0{n: n, lPtr: make([]int, n+1), uPtr: make([]int, n+1)}
	w := make([]float64, n)
	inPat := make([]int, n)
	for i := range inPat {
		inPat[i] = -1
	}
	for j := 0; j < n; j++ {
		// Scatter A(:,j); the diagonal is part of U even if absent from A
		// (it would then be structurally zero and break down, as ILU(0)
		// should).
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		for k := lo; k < hi; k++ {
			w[a.RowInd[k]] = a.Val[k]
			inPat[a.RowInd[k]] = j
		}
		hasDiag := inPat[j] == j
		inPat[j] = j
		// Left-looking updates restricted to the pattern: ascending upper
		// entries are a topological order.
		for k := lo; k < hi; k++ {
			r := a.RowInd[k]
			if r >= j {
				continue
			}
			ukj := w[r]
			if ukj == 0 {
				continue
			}
			for q := p.lPtr[r]; q < p.lPtr[r+1]; q++ {
				if i := p.lInd[q]; inPat[i] == j {
					w[i] -= p.lVal[q] * ukj
				}
			}
		}
		piv := 0.0
		if hasDiag {
			piv = w[j]
		}
		if piv == 0 {
			return nil, fmt.Errorf("krylov: column %d: %w", j, ErrILUBreakdown)
		}
		// Store: upper entries ascending with diagonal last, lower scaled.
		for k := lo; k < hi; k++ {
			r := a.RowInd[k]
			if r < j {
				p.uInd = append(p.uInd, r)
				p.uVal = append(p.uVal, w[r])
			}
		}
		p.uInd = append(p.uInd, j)
		p.uVal = append(p.uVal, piv)
		p.uPtr[j+1] = len(p.uInd)
		for k := lo; k < hi; k++ {
			r := a.RowInd[k]
			if r > j {
				p.lInd = append(p.lInd, r)
				p.lVal = append(p.lVal, w[r]/piv)
			}
		}
		p.lPtr[j+1] = len(p.lInd)
		for k := lo; k < hi; k++ {
			w[a.RowInd[k]] = 0
		}
		w[j] = 0
	}
	return p, nil
}

// Apply overwrites x with (L·U)⁻¹·x.
func (p *ILU0) Apply(x []float64) {
	// Forward substitution (unit lower).
	for j := 0; j < p.n; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for q := p.lPtr[j]; q < p.lPtr[j+1]; q++ {
			x[p.lInd[q]] -= p.lVal[q] * xj
		}
	}
	// Backward substitution.
	for j := p.n - 1; j >= 0; j-- {
		hi := p.uPtr[j+1] - 1
		xj := x[j] / p.uVal[hi]
		x[j] = xj
		if xj == 0 {
			continue
		}
		for q := p.uPtr[j]; q < hi; q++ {
			x[p.uInd[q]] -= p.uVal[q] * xj
		}
	}
}

// Preconditioner applies M⁻¹ in place.
type Preconditioner interface {
	Apply(x []float64)
}

// Identity is the do-nothing preconditioner.
type Identity struct{}

// Apply leaves x unchanged.
func (Identity) Apply([]float64) {}

var _ Preconditioner = (*ILU0)(nil)
var _ Preconditioner = Identity{}

func norm2(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
