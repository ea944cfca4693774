package kernels

// Sparse-column kernels: the inner loops of the left-looking column
// factorization (lu.Factorize), the single-RHS triangular solves and
// the batched multi-RHS solves. A factor column is a sorted index list
// ind with parallel values val; indices within one column are strictly
// ascending, hence distinct, so unrolling over the column is always
// exact.

// SpAxpy applies one sparse column update w[ind[q]] -= val[q]·alpha.
// This is the dominant loop of the left-looking factorization and of
// SolveL/SolveU, so the gather-scatter is unrolled four wide. The
// caller is responsible for the alpha == 0 skip (both the
// factorization and the solves test it before descending here).
//
//gesp:hotpath
func SpAxpy(w []float64, ind []int, val []float64, alpha float64) {
	q := 0
	for ; q+4 <= len(ind); q += 4 {
		i0, i1, i2, i3 := ind[q], ind[q+1], ind[q+2], ind[q+3]
		w[i0] -= val[q] * alpha
		w[i1] -= val[q+1] * alpha
		w[i2] -= val[q+2] * alpha
		w[i3] -= val[q+3] * alpha
	}
	for ; q < len(ind); q++ {
		w[ind[q]] -= val[q] * alpha
	}
}

// SpDotSub folds one sparse column into a running scalar:
// s -= Σ_q val[q]·x[ind[q]], accumulated strictly in ascending q with a
// single accumulator (the transpose-solve contract — the sum order is
// part of the bitwise result). Only the loop body is unrolled; the
// dependency chain is that of the plain loop.
//
//gesp:hotpath
func SpDotSub(s float64, ind []int, val []float64, x []float64) float64 {
	q := 0
	for ; q+4 <= len(ind); q += 4 {
		s -= val[q] * x[ind[q]]
		s -= val[q+1] * x[ind[q+1]]
		s -= val[q+2] * x[ind[q+2]]
		s -= val[q+3] * x[ind[q+3]]
	}
	for ; q < len(ind); q++ {
		s -= val[q] * x[ind[q]]
	}
	return s
}

// SolveSparseLMulti applies L⁻¹ (unit lower triangle in ptr/ind/val
// column form, strictly-lower entries only) to nrhs right-hand sides
// packed column-major in x with stride n: forward substitution with
// each factor column loaded once per RHS quad. The per-RHS xj == 0 skip
// of the single-vector solve is preserved exactly: a quad takes the
// fused path only when all four pivots are nonzero (then a per-vector
// loop would skip nothing either), otherwise each vector is advanced
// alone by solveLColumn; the nrhs mod 4 remainder runs vector by
// vector.
//
//gesp:hotpath
func SolveSparseLMulti(x []float64, n, nrhs int, ptr, ind []int, val []float64) {
	r := 0
	for ; r+4 <= nrhs; r += 4 {
		x0 := x[(r+0)*n : (r+1)*n]
		x1 := x[(r+1)*n : (r+2)*n]
		x2 := x[(r+2)*n : (r+3)*n]
		x3 := x[(r+3)*n : (r+4)*n]
		for j := 0; j < n; j++ {
			lo, hi := ptr[j], ptr[j+1]
			if lo == hi {
				continue
			}
			xj0, xj1, xj2, xj3 := x0[j], x1[j], x2[j], x3[j]
			if xj0 != 0 && xj1 != 0 && xj2 != 0 && xj3 != 0 {
				for q := lo; q < hi; q++ {
					li, lv := ind[q], val[q]
					x0[li] -= lv * xj0
					x1[li] -= lv * xj1
					x2[li] -= lv * xj2
					x3[li] -= lv * xj3
				}
				continue
			}
			solveLColumn(x0, xj0, ind[lo:hi], val[lo:hi])
			solveLColumn(x1, xj1, ind[lo:hi], val[lo:hi])
			solveLColumn(x2, xj2, ind[lo:hi], val[lo:hi])
			solveLColumn(x3, xj3, ind[lo:hi], val[lo:hi])
		}
	}
	for ; r < nrhs; r++ {
		xr := x[r*n : (r+1)*n]
		for j := 0; j < n; j++ {
			xj := xr[j]
			if xj == 0 {
				continue
			}
			for q := ptr[j]; q < ptr[j+1]; q++ {
				xr[ind[q]] -= val[q] * xj
			}
		}
	}
}

// solveLColumn is the single-vector column application with the
// xj == 0 skip.
//
//gesp:hotpath
func solveLColumn(xr []float64, xj float64, ind []int, val []float64) {
	if xj == 0 {
		return
	}
	for q, i := range ind {
		xr[i] -= val[q] * xj
	}
}

// SolveSparseUMulti applies U⁻¹ (upper triangle in ptr/ind/val column
// form, diagonal stored as the last entry of each column) to nrhs
// right-hand sides packed column-major in x with stride n: backward
// substitution with the same quad fusion and exact-skip contract as
// SolveSparseLMulti.
//
//gesp:hotpath
func SolveSparseUMulti(x []float64, n, nrhs int, ptr, ind []int, val []float64) {
	r := 0
	for ; r+4 <= nrhs; r += 4 {
		x0 := x[(r+0)*n : (r+1)*n]
		x1 := x[(r+1)*n : (r+2)*n]
		x2 := x[(r+2)*n : (r+3)*n]
		x3 := x[(r+3)*n : (r+4)*n]
		for j := n - 1; j >= 0; j-- {
			lo, hi := ptr[j], ptr[j+1]-1
			d := val[hi] // diagonal is the last entry of the column
			xj0 := x0[j] / d
			xj1 := x1[j] / d
			xj2 := x2[j] / d
			xj3 := x3[j] / d
			x0[j], x1[j], x2[j], x3[j] = xj0, xj1, xj2, xj3
			if xj0 != 0 && xj1 != 0 && xj2 != 0 && xj3 != 0 {
				for q := lo; q < hi; q++ {
					ui, uv := ind[q], val[q]
					x0[ui] -= uv * xj0
					x1[ui] -= uv * xj1
					x2[ui] -= uv * xj2
					x3[ui] -= uv * xj3
				}
				continue
			}
			solveLColumn(x0, xj0, ind[lo:hi], val[lo:hi])
			solveLColumn(x1, xj1, ind[lo:hi], val[lo:hi])
			solveLColumn(x2, xj2, ind[lo:hi], val[lo:hi])
			solveLColumn(x3, xj3, ind[lo:hi], val[lo:hi])
		}
	}
	for ; r < nrhs; r++ {
		xr := x[r*n : (r+1)*n]
		for j := n - 1; j >= 0; j-- {
			lo, hi := ptr[j], ptr[j+1]-1
			xj := xr[j] / val[hi]
			xr[j] = xj
			if xj == 0 {
				continue
			}
			for q := lo; q < hi; q++ {
				xr[ind[q]] -= val[q] * xj
			}
		}
	}
}
