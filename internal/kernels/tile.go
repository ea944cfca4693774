package kernels

// Row-interleaved triangular sweeps: the batched solves of
// lu.Factors.SolveMulti and SolveTile. A tile holds Lanes right-hand
// sides of length n interleaved by row, t[i*Lanes+l] being row i of
// vector l, so the Lanes values one factor entry updates are one
// contiguous 64-byte row: per entry one index load, one value load, and
// one load and one store of the row, where the column-major
// SolveSparseLMulti does a gather and a scatter per vector.
//
// Bits: per lane the sweep applies t[i] -= val·xj in the single-vector
// solve's column order, each product rounded before it is subtracted (no
// fused multiply-add), and lanes never mix, so lane l ends with exactly
// the bits lu.Factors.Solve gives vector l alone. The xj == 0 skip stays
// exact: a column goes through the all-lane body (tileAxpy) only when
// all Lanes pivots are nonzero, where a per-vector loop would skip
// nothing either; otherwise tileAxpySkip applies each lane alone behind
// the skip, which keeps a -0 row -0 and a NaN pivot's row untouched
// where the scalar loop leaves them so.

// Lanes is how many right-hand sides one tile carries.
const Lanes = 8

// PackTile writes the b ≤ Lanes vectors packed column-major in x (vector
// l at x[l*n : (l+1)*n]) into the tile t, lane l = vector l, and fills
// lanes b..Lanes-1 with copies of vector 0: a padding lane is zero
// exactly when lane 0 is, so it never forces a column onto the per-lane
// path by itself. t must hold Lanes*n values.
//
//gesp:hotpath
func PackTile(t, x []float64, n, b int) {
	t, x = t[:Lanes*n], x[:b*n]
	for i := 0; i < n; i++ {
		r := (*[Lanes]float64)(t[i*Lanes:])
		for l := 0; l < b; l++ {
			r[l] = x[l*n+i]
		}
		for l := b; l < Lanes; l++ {
			r[l] = r[0]
		}
	}
}

// UnpackTile copies lanes 0..b-1 of the tile t back to the vectors packed
// column-major in x; the padding lanes are dropped.
//
//gesp:hotpath
func UnpackTile(x, t []float64, n, b int) {
	t, x = t[:Lanes*n], x[:b*n]
	for i := 0; i < n; i++ {
		r := (*[Lanes]float64)(t[i*Lanes:])
		for l := 0; l < b; l++ {
			x[l*n+i] = r[l]
		}
	}
}

// UnpackLane copies lane l of the tile t to the vector x of length n.
//
//gesp:hotpath
func UnpackLane(x, t []float64, n, l int) {
	t, x = t[:Lanes*n], x[:n]
	for i := range x {
		x[i] = t[i*Lanes+l]
	}
}

// PackLane copies the vector x of length n into lane l of the tile t.
//
//gesp:hotpath
func PackLane(t, x []float64, n, l int) {
	t, x = t[:Lanes*n], x[:n]
	for i, v := range x {
		t[i*Lanes+l] = v
	}
}

// MirrorLanes sets every lane of the tile t in the bit set lanes to a
// copy of lane src. A lane that mirrors a live one is zero exactly where
// that lane is, so it sends no column of a sweep or a residual pass onto
// the per-lane path that the live lanes would not.
//
//gesp:hotpath
func MirrorLanes(t []float64, n, src int, lanes uint8) {
	t = t[:Lanes*n]
	for i := 0; i < n; i++ {
		r := (*[Lanes]float64)(t[i*Lanes:])
		v := r[src]
		for l := range r {
			if lanes&(1<<l) != 0 {
				r[l] = v
			}
		}
	}
}

// SolveTileL applies L⁻¹ (unit lower triangle in ptr/ind/val column form,
// strictly-lower entries only, as SolveSparseLMulti takes it) to every
// lane of the tile t in place: forward substitution, one pass over L for
// Lanes right-hand sides.
//
//gesp:hotpath
func SolveTileL(t []float64, n int, ptr, ind []int, val []float64) {
	solveTileL(t, n, ptr, ind, val, useAVX2)
}

// SolveTileU applies U⁻¹ (upper triangle in ptr/ind/val column form,
// diagonal stored last in each column, as lu.Factors holds it) to every
// lane of the tile t in place: backward substitution.
//
//gesp:hotpath
func SolveTileU(t []float64, n int, ptr, ind []int, val []float64) {
	solveTileU(t, n, ptr, ind, val, useAVX2)
}

// solveTileL is SolveTileL with the body chosen by avx: the assembly
// when true, its Go twin when false (the tests run both).
//
// Every row index a column carries must be below n: the assembly does
// not check it, and t is cut to Lanes*n rows here, once. The symbolic
// analysis guarantees it (symbolic.Result.Check, run under the gespcheck
// tag, proves every L and U index in [0, n)).
//
//gesp:hotpath
func solveTileL(t []float64, n int, ptr, ind []int, val []float64, avx bool) {
	t = t[:Lanes*n]
	ptr = ptr[:n+1]
	for j := 0; j < n; j++ {
		lo, hi := ptr[j], ptr[j+1]
		if lo == hi {
			continue
		}
		x := (*[Lanes]float64)(t[j*Lanes:])
		tileColumn(t, ind[lo:hi], val[lo:hi], x, avx)
	}
}

// solveTileU is SolveTileU with the body chosen by avx; solveTileL's
// index bound holds for U too.
//
//gesp:hotpath
func solveTileU(t []float64, n int, ptr, ind []int, val []float64, avx bool) {
	t = t[:Lanes*n]
	ptr = ptr[:n+1]
	for j := n - 1; j >= 0; j-- {
		lo, hi := ptr[j], ptr[j+1]-1
		d := val[hi] // diagonal is the last entry of the column
		x := (*[Lanes]float64)(t[j*Lanes:])
		if avx {
			tileDivAVX2(x, d)
		} else {
			tileDiv(x, d)
		}
		if lo < hi {
			tileColumn(t, ind[lo:hi], val[lo:hi], x, avx)
		}
	}
}

// tileDiv divides every lane of the pivot row x by the diagonal d, the
// Go twin of tileDivAVX2 (IEEE division per lane, so the same bits).
//
//gesp:hotpath
func tileDiv(x *[Lanes]float64, d float64) {
	for l := range x {
		x[l] /= d
	}
}

// tileColumn applies one factor column to every lane of t with pivots x:
// the all-lane body when no pivot is zero, each lane behind its own skip
// otherwise.
//
//gesp:hotpath
func tileColumn(t []float64, ind []int, val []float64, x *[Lanes]float64, avx bool) {
	if x[0] == 0 || x[1] == 0 || x[2] == 0 || x[3] == 0 ||
		x[4] == 0 || x[5] == 0 || x[6] == 0 || x[7] == 0 {
		tileAxpySkip(t, ind, val, x)
		return
	}
	if avx {
		tileAxpyAVX2(t, ind, val, x)
		return
	}
	tileAxpy(t, ind, val, x)
}

// tileAxpy is the all-lane body: t[ind[q]*Lanes+l] -= val[q]·x[l] for
// every q and lane l. It is the Go twin of tileAxpyAVX2 (same operations
// per lane, same order) and the body on CPUs without AVX2.
//
//gesp:hotpath
func tileAxpy(t []float64, ind []int, val []float64, x *[Lanes]float64) {
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	val = val[:len(ind)]
	for q, i := range ind {
		r := (*[Lanes]float64)(t[i*Lanes:])
		v := val[q]
		r[0] -= v * x0
		r[1] -= v * x1
		r[2] -= v * x2
		r[3] -= v * x3
		r[4] -= v * x4
		r[5] -= v * x5
		r[6] -= v * x6
		r[7] -= v * x7
	}
}

// tileAxpySkip applies the column to each lane alone, skipping a lane
// whose pivot is zero: the single-vector solve's loop, one lane at a time.
//
//gesp:hotpath
func tileAxpySkip(t []float64, ind []int, val []float64, x *[Lanes]float64) {
	val = val[:len(ind)]
	for l, xl := range x {
		if xl == 0 {
			continue
		}
		for q, i := range ind {
			t[i*Lanes+l] -= val[q] * xl
		}
	}
}
