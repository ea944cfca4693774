// Package zsparse provides the complex128 sparse-matrix kernel for the
// complex GESP solver. The paper's flagship application — a quantum
// chemistry code at LBNL — solves complex unsymmetric systems ("a complex
// unsymmetric system of order 200,000 has been solved within 2 minutes");
// this package and internal/zsolver reproduce that capability.
//
// The structural machinery (matching, ordering, symbolic factorization)
// is shared with the real-valued solver through Magnitude, which shadows
// a complex matrix by the real matrix of entry moduli.
package zsparse

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"gesp/internal/sparse"
)

// CSC is a complex sparse matrix in compressed sparse column form, with
// the same invariants as sparse.CSC.
type CSC struct {
	Rows, Cols int
	ColPtr     []int
	RowInd     []int
	Val        []complex128
}

// Nnz reports the number of stored entries.
func (a *CSC) Nnz() int { return a.ColPtr[a.Cols] }

// At returns the entry at (i, j) or 0.
func (a *CSC) At(i, j int) complex128 {
	lo, hi := a.ColPtr[j], a.ColPtr[j+1]
	k := lo + sort.SearchInts(a.RowInd[lo:hi], i)
	if k < hi && a.RowInd[k] == i {
		return a.Val[k]
	}
	return 0
}

// Triplet accumulates complex entries; duplicates sum on conversion.
type Triplet struct {
	Rows, Cols int
	rows, cols []int
	vals       []complex128
}

// NewTriplet returns an empty builder.
func NewTriplet(r, c int) *Triplet { return &Triplet{Rows: r, Cols: c} }

// Append adds entry (i, j) = v.
func (t *Triplet) Append(i, j int, v complex128) {
	if i < 0 || i >= t.Rows || j < 0 || j >= t.Cols {
		panic(fmt.Sprintf("zsparse: entry (%d,%d) out of range %dx%d", i, j, t.Rows, t.Cols))
	}
	t.rows = append(t.rows, i)
	t.cols = append(t.cols, j)
	t.vals = append(t.vals, v)
}

// ToCSC converts to CSC form, summing duplicates.
func (t *Triplet) ToCSC() *CSC {
	nz := len(t.vals)
	count := make([]int, t.Cols+1)
	for _, j := range t.cols {
		count[j+1]++
	}
	for j := 0; j < t.Cols; j++ {
		count[j+1] += count[j]
	}
	ri := make([]int, nz)
	vv := make([]complex128, nz)
	next := append([]int(nil), count...)
	for k := 0; k < nz; k++ {
		p := next[t.cols[k]]
		next[t.cols[k]]++
		ri[p] = t.rows[k]
		vv[p] = t.vals[k]
	}
	a := &CSC{Rows: t.Rows, Cols: t.Cols, ColPtr: make([]int, t.Cols+1)}
	type iv struct {
		i int
		v complex128
	}
	for j := 0; j < t.Cols; j++ {
		lo, hi := count[j], count[j+1]
		seg := make([]iv, hi-lo)
		for k := lo; k < hi; k++ {
			seg[k-lo] = iv{ri[k], vv[k]}
		}
		sort.Slice(seg, func(a, b int) bool { return seg[a].i < seg[b].i })
		for k := 0; k < len(seg); {
			i := seg[k].i
			var s complex128
			for k < len(seg) && seg[k].i == i {
				s += seg[k].v
				k++
			}
			a.RowInd = append(a.RowInd, i)
			a.Val = append(a.Val, s)
		}
		a.ColPtr[j+1] = len(a.RowInd)
	}
	return a
}

// Magnitude returns the real matrix of entry moduli |a_ij|, sharing the
// sparsity structure: the bridge that lets the complex solver reuse the
// real equilibration, matching, ordering and symbolic analysis.
func (a *CSC) Magnitude() *sparse.CSC {
	m := &sparse.CSC{
		Rows:   a.Rows,
		Cols:   a.Cols,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowInd: append([]int(nil), a.RowInd...),
		Val:    make([]float64, a.Nnz()),
	}
	for k, v := range a.Val {
		m.Val[k] = cmplx.Abs(v)
	}
	return m
}

// MatVec computes y = A·x.
func (a *CSC) MatVec(y []complex128, x []complex128) {
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			y[a.RowInd[k]] += a.Val[k] * xj
		}
	}
}

// Residual computes r = b − A·x.
func (a *CSC) Residual(r, b, x []complex128) {
	a.MatVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
}

// AbsMatVec computes y = |A|·x for real nonnegative x (berr denominator).
func (a *CSC) AbsMatVec(y []float64, x []float64) {
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			y[a.RowInd[k]] += cmplx.Abs(a.Val[k]) * xj
		}
	}
}

// Norm1 returns the 1-norm.
func (a *CSC) Norm1() float64 {
	best := 0.0
	for j := 0; j < a.Cols; j++ {
		s := 0.0
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			s += cmplx.Abs(a.Val[k])
		}
		if s > best {
			best = s
		}
	}
	return best
}

// RelErrInf returns ‖x−y‖∞/‖y‖∞ with complex moduli.
func RelErrInf(x, y []complex128) float64 {
	num, den := 0.0, 0.0
	for i := range x {
		if d := cmplx.Abs(x[i] - y[i]); d > num {
			num = d
		}
		if a := cmplx.Abs(y[i]); a > den {
			den = a
		}
	}
	if den == 0 {
		return num
	}
	return num / den
}

// VecNormInf returns max |x_i|.
func VecNormInf(x []complex128) float64 {
	best := 0.0
	for _, v := range x {
		if a := cmplx.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// Berr computes the componentwise backward error of x for A·x = b, on
// refine.ResidualBerr's contract: rows with a zero denominator and zero
// residual contribute nothing; a nonzero residual over a zero
// denominator, or one that overflowed, yields +Inf; a NaN in any row
// yields NaN.
func Berr(a *CSC, x, b []complex128) float64 {
	n := len(b)
	r := make([]complex128, n)
	a.Residual(r, b, x)
	absx := make([]float64, n)
	for i, v := range x {
		absx[i] = cmplx.Abs(v)
	}
	den := make([]float64, n)
	a.AbsMatVec(den, absx)
	berr, inf, nan := 0.0, false, false
	for i := 0; i < n; i++ {
		d := den[i] + cmplx.Abs(b[i])
		ri := cmplx.Abs(r[i])
		switch {
		case math.IsNaN(d) || math.IsNaN(ri):
			nan = true
		case math.IsInf(ri, 1):
			inf = true
		case d > 0:
			if q := ri / d; q > berr {
				berr = q
			}
		case ri > 0:
			inf = true
		}
	}
	switch {
	case nan:
		return math.NaN()
	case inf:
		return math.Inf(1)
	}
	return berr
}
