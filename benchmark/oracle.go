package main

import (
	"math"

	"gesp/internal/sparse"
)

// The correctness oracle. It shares no code with the solver: its own
// SpMV over the CSC arrays, its own error measures. Every solution a
// workload receives goes through accept or acceptForward after the
// operation's clock has stopped.

const (
	// berrTol bounds the componentwise backward error of an accepted
	// solution; refinement drives it to ~2e-16, so 1e-12 only rejects
	// answers that are wrong, not ones that are a few ulps off.
	berrTol = 1e-12
	// ferrTol bounds ‖x−x_true‖∞/‖x_true‖∞ where the distributed path
	// returns an unrefined solution.
	ferrTol = 1e-6
)

// spmv returns y = A·x.
func spmv(a *sparse.CSC, x []float64) []float64 {
	y := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			y[a.RowInd[p]] += a.Val[p] * xj
		}
	}
	return y
}

// backwardError returns max_i |b−A·x|_i / (|A|·|x|+|b|)_i, the
// componentwise backward error of Oettli and Prager, or +Inf when x
// has the wrong length or a non-finite entry.
func backwardError(a *sparse.CSC, x, b []float64) float64 {
	if len(x) != a.Cols || len(b) != a.Rows {
		return math.Inf(1)
	}
	r := make([]float64, a.Rows)
	den := make([]float64, a.Rows)
	for i, bi := range b {
		r[i] = bi
		den[i] = math.Abs(bi)
	}
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		if math.IsNaN(xj) || math.IsInf(xj, 0) {
			return math.Inf(1)
		}
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			t := a.Val[p] * xj
			r[a.RowInd[p]] -= t
			den[a.RowInd[p]] += math.Abs(t)
		}
	}
	worst := 0.0
	for i, ri := range r {
		switch {
		case ri == 0:
		case den[i] == 0:
			return math.Inf(1)
		default:
			worst = math.Max(worst, math.Abs(ri)/den[i])
		}
	}
	return worst
}

// accept reports whether x solves A·x = b to the backward-error bound.
func accept(a *sparse.CSC, x, b []float64) bool {
	return backwardError(a, x, b) <= berrTol
}

// forwardError returns ‖x−xTrue‖∞/‖xTrue‖∞, or +Inf on a length
// mismatch or a non-finite entry.
func forwardError(x, xTrue []float64) float64 {
	if len(x) != len(xTrue) {
		return math.Inf(1)
	}
	var diff, norm float64
	for i, xi := range x {
		if math.IsNaN(xi) || math.IsInf(xi, 0) {
			return math.Inf(1)
		}
		diff = math.Max(diff, math.Abs(xi-xTrue[i]))
		norm = math.Max(norm, math.Abs(xTrue[i]))
	}
	if norm == 0 {
		return math.Inf(1)
	}
	return diff / norm
}

// acceptForward reports whether x is within the forward-error bound of
// the solution the right-hand side was built from.
func acceptForward(x, xTrue []float64) bool {
	return forwardError(x, xTrue) <= ferrTol
}
