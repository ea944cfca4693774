package kernels

import "math"

// The residual pass of step (4): r = b − A·x and the componentwise
// backward error berr = max_i |r|_i / (|A|·|x| + |b|)_i, for one vector
// (ResidualBerr) or for the Lanes right-hand sides of a tile
// (ResidualTile, the batched refinement's pass: one walk over A for all
// of them).
//
// Bits: per lane the tile pass applies ResidualBerr's operations in its
// order and with its operand order — r[i] = v·x_j + r[i] and
// d[i] = |v|·|x_j| + d[i] per entry, column by column; then
// r[i] = b[i] − r[i] — with no fused multiply-add, so lane l ends with
// the r, the |A|·|x| and the berr that ResidualBerr gives vector l
// alone, NaN payloads included. ResidualBerr skips the r update of a
// column whose x_j is zero (an Inf in A would otherwise make a NaN
// there); a column with a zero in any lane goes through each lane alone
// (residualLanes), the tileColumn idiom.

// ResidualBerr computes r = b − A·x and returns the componentwise
// (Oettli–Prager) backward error max_i |r|_i / (|A|·|x| + |b|)_i, both
// from one pass over A, which is given in column form (ptr/ind/val,
// len(ptr)-1 columns, len(b) rows). Rows with a zero denominator and
// zero residual contribute nothing; a nonzero residual over a zero
// denominator, or one that overflowed, yields +Inf; a NaN in any row
// yields NaN (NaN compares false against everything, so it would
// otherwise pass for berr 0). extra accumulates A·x in compensated
// precision with FMA-based error-free transformations. work is scratch
// of n floats, 2n with extra; on return work[:n] holds |A|·|x|. Nothing
// is allocated.
//
//gesp:hotpath
func ResidualBerr(ptr, ind []int, val []float64, r, work, x, b []float64, extra bool) float64 {
	n := len(b)
	r, den := r[:n], work[:n]
	var comp []float64
	if extra {
		comp = work[n : 2*n]
	}
	clear(r)
	clear(den)
	clear(comp)
	// r accumulates A·x and den |A|·|x| column by column, so each row's
	// sum has the order of sparse.CSC.MatVec and AbsMatVec.
	for j := 0; j+1 < len(ptr); j++ {
		xj := x[j]
		axj := math.Abs(xj)
		lo, hi := ptr[j], ptr[j+1]
		ind, val := ind[lo:hi], val[lo:hi]
		switch {
		case xj == 0:
			// A·x skips the column; |A|·|x| must not, or a non-finite
			// entry of A would stop poisoning its row.
			for q, i := range ind {
				den[i] += math.Abs(val[q]) * axj
			}
		case !extra:
			for q, i := range ind {
				v := val[q]
				r[i] += v * xj
				den[i] += math.Abs(v) * axj
			}
		default:
			for q, i := range ind {
				v := val[q]
				p := v * xj
				e := math.FMA(v, xj, -p) // exact product error
				// TwoSum accumulate p into r[i].
				s := r[i] + p
				bv := s - r[i]
				err := (r[i] - (s - bv)) + (p - bv)
				r[i] = s
				comp[i] += err + e
				den[i] += math.Abs(v) * axj
			}
		}
	}
	berr, inf, nan := 0.0, false, false
	for i, bi := range b {
		ri := bi - r[i]
		if extra {
			ri -= comp[i] // the small part last
		}
		r[i] = ri
		ri = math.Abs(ri)
		d := den[i] + math.Abs(bi)
		switch {
		case math.IsNaN(d) || math.IsNaN(ri):
			nan = true
		case math.IsInf(ri, 1):
			// The residual overflowed; over an infinite d too its ratio
			// would be NaN, which no comparison keeps.
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

// ResidualTile is ResidualBerr on the Lanes right-hand sides of the
// tiles x and b (n rows each, interleaved by row as PackTile lays them
// out), A being n×n in column form: it sets the tile r to b − A·x, the
// tile d to |A|·|x| and berr[l] to lane l's backward error, with one
// pass over A for every lane (a compensated pass, and a Lanewise one,
// make ResidualBerr's own pass per lane in lanes). extra is
// ResidualBerr's compensated accumulation; work is a
// further tile of scratch. Each lane in the set lanes (bit l for lane l)
// gets exactly the bits ResidualBerr gives that vector alone; the r, d
// and berr of the other lanes are unspecified. Every row index of A
// must be below n (the assembly does not check it). Nothing is
// allocated.
//
//gesp:hotpath
func ResidualTile(r, d, work []float64, n int, ptr, ind []int, val []float64, x, b []float64, lanes uint8, extra bool, berr *[Lanes]float64) {
	residualTile(r, d, work, n, ptr, ind, val, x, b, lanes, extra, berr, useAVX2)
}

// residualTile is ResidualTile with the bodies chosen by avx: the
// assembly accumulate and berr passes when true, their Go twins when
// false (the tests run both). A Lanewise tile, and a compensated pass,
// run ResidualBerr on each lane in lanes alone (residualEach).
//
//gesp:hotpath
func residualTile(r, d, work []float64, n int, ptr, ind []int, val []float64, x, b []float64, lanes uint8, extra bool, berr *[Lanes]float64, avx bool) {
	r, d, x, b = r[:Lanes*n], d[:Lanes*n], x[:Lanes*n], b[:Lanes*n]
	ptr = ptr[:n+1]
	if extra || lanewise(lanes, avx) {
		residualEach(r, d, work[:Lanes*n], n, ptr, ind, val, x, b, lanes, extra, berr)
		return
	}
	clear(r)
	clear(d)
	for j := 0; j < n; j++ {
		if avx {
			// The assembly runs up to the next column with a zero lane.
			if j = residualRunAVX2(r, d, ptr, ind, val, x, j); j == n {
				break
			}
		}
		xj := (*[Lanes]float64)(x[j*Lanes:])
		lo, hi := ptr[j], ptr[j+1]
		if anyZero(xj) {
			residualLanes(r, d, ind[lo:hi], val[lo:hi], xj)
		} else {
			residualColumn(r, d, ind[lo:hi], val[lo:hi], xj)
		}
	}
	var nan, inf uint8
	if avx {
		nan, inf = residualBerrAVX2(r, d, b, berr)
	} else {
		nan, inf = residualBerr(r, d, b, berr)
	}
	for l := range berr {
		switch {
		case nan&(1<<l) != 0:
			berr[l] = math.NaN()
		case inf&(1<<l) != 0:
			berr[l] = math.Inf(1)
		}
	}
}

// residualEach is the tile pass as ResidualBerr on each lane in lanes
// alone: the lane's x and b are unpacked into work, which holds them and
// ResidualBerr's r and scratch (5n floats with extra, else 4n), and its
// r and |A|·|x| are packed back. Its berr of the other lanes is zero.
//
//gesp:hotpath
func residualEach(r, d, work []float64, n int, ptr, ind []int, val []float64, x, b []float64, lanes uint8, extra bool, berr *[Lanes]float64) {
	xv, bv, rv, wv := work[:n], work[n:2*n], work[2*n:3*n], work[3*n:]
	*berr = [Lanes]float64{}
	for l := 0; l < Lanes; l++ {
		if lanes&(1<<l) == 0 {
			continue
		}
		for i := range xv {
			xv[i], bv[i] = x[i*Lanes+l], b[i*Lanes+l]
		}
		berr[l] = ResidualBerr(ptr, ind, val, rv, wv, xv, bv, extra)
		for i, ri := range rv {
			r[i*Lanes+l], d[i*Lanes+l] = ri, wv[i]
		}
	}
}

// anyZero reports whether some lane of x is zero (of either sign).
func anyZero(x *[Lanes]float64) bool {
	return x[0] == 0 || x[1] == 0 || x[2] == 0 || x[3] == 0 ||
		x[4] == 0 || x[5] == 0 || x[6] == 0 || x[7] == 0
}

// residualColumn is the all-lane accumulate of one column of A with no
// zero in x: r[i] += v·x[l] and d[i] += |v|·|x[l]| per entry and lane.
// It is the Go twin of residualRunAVX2's column. The r and d updates take
// a loop each, so that neither spills its eight multipliers, and v is
// loaded afresh for every product: a register that dies in the product
// is its destination, so v is the first operand, as in ResidualBerr
// (that fixes a NaN payload when both operands are NaN).
//
//gesp:hotpath
func residualColumn(r, d []float64, ind []int, val []float64, x *[Lanes]float64) {
	val = val[:len(ind)]
	x0, x1, x2, x3, x4, x5, x6, x7 := x[0], x[1], x[2], x[3], x[4], x[5], x[6], x[7]
	for q, i := range ind {
		rr := (*[Lanes]float64)(r[i*Lanes:])
		rr[0] += val[q] * x0
		rr[1] += val[q] * x1
		rr[2] += val[q] * x2
		rr[3] += val[q] * x3
		rr[4] += val[q] * x4
		rr[5] += val[q] * x5
		rr[6] += val[q] * x6
		rr[7] += val[q] * x7
	}
	x0, x1, x2, x3 = math.Abs(x0), math.Abs(x1), math.Abs(x2), math.Abs(x3)
	x4, x5, x6, x7 = math.Abs(x4), math.Abs(x5), math.Abs(x6), math.Abs(x7)
	for q, i := range ind {
		dd := (*[Lanes]float64)(d[i*Lanes:])
		dd[0] += math.Abs(val[q]) * x0
		dd[1] += math.Abs(val[q]) * x1
		dd[2] += math.Abs(val[q]) * x2
		dd[3] += math.Abs(val[q]) * x3
		dd[4] += math.Abs(val[q]) * x4
		dd[5] += math.Abs(val[q]) * x5
		dd[6] += math.Abs(val[q]) * x6
		dd[7] += math.Abs(val[q]) * x7
	}
}

// residualLanes applies one column of A to each lane alone, by
// ResidualBerr's two cases: |A|·|x| only where the lane's x is zero,
// both products otherwise.
//
//gesp:hotpath
func residualLanes(r, d []float64, ind []int, val []float64, x *[Lanes]float64) {
	val = val[:len(ind)]
	for l, xl := range x {
		axl := math.Abs(xl)
		if xl == 0 {
			for q, i := range ind {
				d[i*Lanes+l] += math.Abs(val[q]) * axl
			}
			continue
		}
		for q, i := range ind {
			k := i*Lanes + l
			r[k] += val[q] * xl
			d[k] += math.Abs(val[q]) * axl
		}
	}
}

// residualBerr is the berr pass of the tile, the Go twin of
// residualBerrAVX2, one lane at a time: r becomes b − r, berr the
// per-lane maximum of |r|/(d + |b|) over the rows with a positive
// denominator, and the two masks the lanes with a NaN row and those with
// an overflowed residual or a nonzero residual over a zero denominator,
// which ResidualTile turns into berr NaN and +Inf.
//
//gesp:hotpath
func residualBerr(r, d, b []float64, berr *[Lanes]float64) (nan, inf uint8) {
	r, d = r[:len(b)], d[:len(b)]
	for l := 0; l < Lanes; l++ {
		be := 0.0
		for k := l; k < len(b); k += Lanes {
			bk := b[k]
			rk := bk - r[k]
			r[k] = rk
			rk = math.Abs(rk)
			dk := d[k] + math.Abs(bk)
			if dk > 0 && rk <= math.MaxFloat64 {
				// The common row, neither NaN nor overflowed: one test.
				if q := rk / dk; q > be {
					be = q
				}
				continue
			}
			switch {
			case math.IsNaN(dk) || math.IsNaN(rk):
				nan |= 1 << l
			case rk > 0: // overflowed, or over a zero denominator
				inf |= 1 << l
			}
		}
		berr[l] = be
	}
	return nan, inf
}
