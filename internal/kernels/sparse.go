package kernels

// Sparse-column kernels: the inner loops of the left-looking column
// factorization (lu.Factorize), the single-RHS triangular solves and
// the column-major multi-RHS solves. A factor column is a sorted index list
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

// SpTriCols carries the working column through the diagonal block of a
// supernode run: w holds the run's len(u) rows, column c of the block is
// the len(u)-1-c values of val from start[c] (unit lower triangular; in a
// column-compressed L with the block's rows first in every column, start
// is a window of the column pointers), and on return u[c] is the
// multiplier of column c — w[c] once columns 0..c-1 have been applied —
// with the u[c] == 0 skip of the column-by-column loop. Out of line for
// SpAxpy4's reason: inlined into the factorization's column update its
// short loops ran on spilled registers (11 % of a mesh factorization).
//
//gesp:hotpath
//go:noinline
func SpTriCols(w, val []float64, start []int, u []float64) {
	spTriCols(w, val, start, u, useAVX2)
}

// spTriCols is SpTriCols with the body of the trailing update chosen by
// avx: a column's rows below the diagonal are contiguous in w and in
// val, so an update of four rows or more goes through axpyAVX2 when avx
// is true, and through its Go twin axpy otherwise (the tests run both).
//
//gesp:hotpath
func spTriCols(w, val []float64, start []int, u []float64, avx bool) {
	w, start = w[:len(u)], start[:len(u)]
	for c := range u {
		uc := w[c]
		u[c] = uc
		if uc == 0 {
			continue
		}
		wb := w[c+1:]
		col := val[start[c]:][:len(wb)]
		if avx && len(wb) >= 4 {
			axpyAVX2(wb, col, uc)
			continue
		}
		axpy(wb, col, uc)
	}
}

// axpy is y[t] -= x[t]·a for every t < len(y): the Go twin of axpyAVX2
// (each product rounded before it is subtracted, the same operations per
// element) and the body on CPUs without AVX2.
//
//gesp:hotpath
func axpy(y, x []float64, a float64) {
	x = x[:len(y)]
	for t := range y {
		y[t] -= x[t] * a
	}
}

// SpAxpyCols applies len(u) sparse columns that share the index list ind
// — a run of columns of one supernode, below its diagonal block — to w:
// w[ind[q]] -= val_c[q]·u[c] for c ascending, where column c's values are
// the len(ind) entries of val that end at end[c] (in a column-compressed
// L with the supernode's rows ind last in every column, end is a window
// of the column pointers).
//
// One body applies a whole stretch of columns per gather and scatter of
// w's rows, whatever the run's width. The u[c] == 0 skip of the
// column-by-column loop stays exact: a stretch holds only nonzero
// multipliers, so a zero one ends it and the next stretch starts after
// it (zero multipliers are rare; a run usually is one stretch). Each
// w[i] still receives its subtractions one rounded product at a time in
// ascending column order, so the result is bit for bit the
// column-by-column loop's.
//
//gesp:hotpath
func SpAxpyCols(w []float64, ind []int, val []float64, end []int, u []float64) {
	spAxpyCols(w, ind, val, end, u, useAVX2)
}

// spAxpyCols is SpAxpyCols with the body chosen by avx: the assembly
// spAxpyRunAVX2 when true, its Go twin spAxpyRun when false (the tests
// run both).
//
// The assembly does not check its indices, and relies on the column
// contract for them: ind ascends and end ascends (a window of column
// pointers), so bounding the first and last row by len(w) bounds every
// row, and bounding the stretch's first and last column by len(val)
// bounds every column between them.
//
//gesp:hotpath
func spAxpyCols(w []float64, ind []int, val []float64, end []int, u []float64, avx bool) {
	m := len(ind)
	if m == 0 {
		return
	}
	end = end[:len(u)]
	for c := 0; c < len(u); {
		if u[c] == 0 {
			c++
			continue
		}
		d := c + 1
		for d < len(u) && u[d] != 0 {
			d++
		}
		if avx {
			_, _, _ = w[ind[0]], w[ind[m-1]], val[end[c]-m:end[d-1]]
			spAxpyRunAVX2(w, ind, val, end[c:d], u[c:d])
		} else {
			spAxpyRun(w, ind, val, end[c:d], u[c:d])
		}
		c = d
	}
}

// spAxpyRun is the Go twin of spAxpyRunAVX2 and the body on CPUs without
// AVX2: the columns (values ending at end[k], multiplier u[k], none of
// them zero) go four at a time through SpAxpy4, then two through
// SpAxpy2, then one through SpAxpy.
//
//gesp:hotpath
func spAxpyRun(w []float64, ind []int, val []float64, end []int, u []float64) {
	m := len(ind)
	end = end[:len(u)]
	k := 0
	for ; k+4 <= len(u); k += 4 {
		SpAxpy4(w, ind, val[end[k]-m:end[k]], val[end[k+1]-m:end[k+1]],
			val[end[k+2]-m:end[k+2]], val[end[k+3]-m:end[k+3]], u[k], u[k+1], u[k+2], u[k+3])
	}
	if k+2 <= len(u) {
		SpAxpy2(w, ind, val[end[k]-m:end[k]], val[end[k+1]-m:end[k+1]], u[k], u[k+1])
		k += 2
	}
	if k < len(u) {
		SpAxpy(w, ind, val[end[k]-m:end[k]], u[k])
	}
}

// SpAxpy4 is the four-column body of spAxpyRun: per row one index load,
// one gather and one scatter of w for four multiply-adds. Each w[i] sees
// the subtractions v0·u0, v1·u1, v2·u2, v3·u3 in that order, each product
// rounded before it is subtracted (no fused multiply-add), so the result
// is bit for bit that of four SpAxpy calls in column order. It is kept
// out of line: inlined into a caller as large as the factorization's
// column update the loop spills its index and column bases to the stack
// and runs at half the speed.
//
//gesp:hotpath
//go:noinline
func SpAxpy4(w []float64, ind []int, v0, v1, v2, v3 []float64, u0, u1, u2, u3 float64) {
	v0, v1, v2, v3 = v0[:len(ind)], v1[:len(ind)], v2[:len(ind)], v3[:len(ind)]
	for q, i := range ind {
		t := w[i]
		t -= v0[q] * u0
		t -= v1[q] * u1
		t -= v2[q] * u2
		t -= v3[q] * u3
		w[i] = t
	}
}

// SpAxpy2 is the two-column body, for the remainder of a run.
//
//gesp:hotpath
//go:noinline
func SpAxpy2(w []float64, ind []int, v0, v1 []float64, u0, u1 float64) {
	v0, v1 = v0[:len(ind)], v1[:len(ind)]
	for q, i := range ind {
		t := w[i]
		t -= v0[q] * u0
		t -= v1[q] * u1
		w[i] = t
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
// each factor column loaded once per RHS quad. Production sweeps go
// through the row-interleaved tiles (SolveTileL, lu.Factors.SolveMulti);
// this column-major form stays only as the end-to-end benchmark's
// kernel probe. The per-RHS xj == 0 skip
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
