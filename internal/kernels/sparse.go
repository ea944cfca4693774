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
	w, start = w[:len(u)], start[:len(u)]
	for c := range u {
		uc := w[c]
		u[c] = uc
		if uc == 0 {
			continue
		}
		wb := w[c+1:]
		col := val[start[c]:][:len(wb)]
		for t := range wb {
			wb[t] -= col[t] * uc
		}
	}
}

// SpAxpyCols applies len(u) sparse columns that share the index list ind
// — a run of columns of one supernode, below its diagonal block — to w:
// w[ind[q]] -= val_c[q]·u[c] for c ascending, where column c's values are
// the len(ind) entries of val that end at end[c] (in a column-compressed
// L with the supernode's rows ind last in every column, end is a window
// of the column pointers). Columns go four at a time through SpAxpy4,
// then two through SpAxpy2, then one through SpAxpy. The u[c] == 0 skip
// of the column-by-column loop stays exact the way SolveSparseLMulti
// keeps it: a group is fused only when all its multipliers are nonzero,
// otherwise its columns are applied alone, each with the skip.
//
//gesp:hotpath
func SpAxpyCols(w []float64, ind []int, val []float64, end []int, u []float64) {
	m := len(ind)
	end = end[:len(u)]
	c := 0
	for ; c+4 <= len(u); c += 4 {
		v0, v1 := val[end[c]-m:end[c]], val[end[c+1]-m:end[c+1]]
		v2, v3 := val[end[c+2]-m:end[c+2]], val[end[c+3]-m:end[c+3]]
		if u[c] != 0 && u[c+1] != 0 && u[c+2] != 0 && u[c+3] != 0 {
			SpAxpy4(w, ind, v0, v1, v2, v3, u[c], u[c+1], u[c+2], u[c+3])
			continue
		}
		spAxpySkip(w, ind, v0, u[c])
		spAxpySkip(w, ind, v1, u[c+1])
		spAxpySkip(w, ind, v2, u[c+2])
		spAxpySkip(w, ind, v3, u[c+3])
	}
	if c+2 <= len(u) {
		v0, v1 := val[end[c]-m:end[c]], val[end[c+1]-m:end[c+1]]
		if u[c] != 0 && u[c+1] != 0 {
			SpAxpy2(w, ind, v0, v1, u[c], u[c+1])
		} else {
			spAxpySkip(w, ind, v0, u[c])
			spAxpySkip(w, ind, v1, u[c+1])
		}
		c += 2
	}
	if c < len(u) {
		spAxpySkip(w, ind, val[end[c]-m:end[c]], u[c])
	}
}

// spAxpySkip is SpAxpy behind the alpha == 0 skip.
//
//gesp:hotpath
func spAxpySkip(w []float64, ind []int, val []float64, alpha float64) {
	if alpha != 0 {
		SpAxpy(w, ind, val, alpha)
	}
}

// SpAxpy4 is the four-column body of SpAxpyCols: per row one index load,
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
