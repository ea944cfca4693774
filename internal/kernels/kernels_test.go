package kernels

import (
	"math"
	"sync"
	"testing"
)

// The golden tests pin each kernel against its plain-loop oracle
// (oracle_test.go) bitwise (Float64bits equality, so signed zeros and
// NaN payloads count) on a shape grid that straddles every
// register-block boundary: fringe rows, fringe columns, k = 0, single
// columns, and the paper's maxSuper panel width of 24.

var shapes = []int{0, 1, 2, 3, 4, 5, 7, 8, 12, 16, 17, 24, 31}

// rng is a splitmix64 generator: deterministic, seedable, no math/rand
// dependency in test helpers.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// f64 returns a value in (-1, 1); roughly one in four is exactly zero so
// the skip paths are exercised. Zeros are +0 only: the dense kernels'
// bitwise contract is stated for non-(-0) data (a -0 target minus an
// executed ±0 term flips to +0 where the scalar skip would keep it, and
// the engines never produce -0 targets). The multi-RHS solve test
// plants -0 explicitly, because there the skip is preserved exactly.
func (r *rng) f64() float64 {
	u := r.next()
	if u%4 == 0 {
		return 0
	}
	return float64(int64(u%2001)-1000) / 1024
}

func (r *rng) fill(x []float64) {
	for i := range x {
		x[i] = r.f64()
	}
}

func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return 0, true
}

// checkMatMul compares MatMul with its oracle on one m×n×k product of
// operands drawn from r.
func checkMatMul(t *testing.T, r *rng, m, n, k int) {
	t.Helper()
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	r.fill(a)
	r.fill(b)
	want := make([]float64, m*n)
	got := make([]float64, m*n)
	r.fill(want) // dirty output: kernels must overwrite, not accumulate
	copy(got, want)
	matMulScalar(want, a, b, m, n, k)
	MatMul(got, a, b, m, n, k)
	if i, ok := bitsEqual(want, got); !ok {
		t.Fatalf("m=%d n=%d k=%d: element %d differs: oracle %x kernel %x",
			m, n, k, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
	}
}

func TestMatMulGolden(t *testing.T) {
	t.Parallel()
	r := &rng{s: 1}
	for _, m := range shapes {
		for _, n := range shapes {
			for _, k := range shapes {
				checkMatMul(t, r, m, n, k)
			}
		}
	}
}

func TestTrsmUpperRightGolden(t *testing.T) {
	t.Parallel()
	r := &rng{s: 2}
	for _, nr := range shapes {
		for _, nc := range shapes {
			for _, pad := range []int{0, 3} {
				ldd := nc + pad
				d := make([]float64, nc*ldd)
				r.fill(d)
				for k := 0; k < nc; k++ {
					d[k*ldd+k] = 1 + float64(k%7) // safe nonzero diagonal
				}
				want := make([]float64, nr*nc)
				r.fill(want)
				got := make([]float64, len(want))
				copy(got, want)
				trsmUpperRightScalar(want, nr, nc, d, ldd)
				TrsmUpperRight(got, nr, nc, d, ldd)
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("nr=%d nc=%d ldd=%d: element %d differs", nr, nc, ldd, i)
				}
			}
		}
	}
}

func TestTrsmLowerUnitLeftGolden(t *testing.T) {
	t.Parallel()
	r := &rng{s: 3}
	for _, nr := range shapes {
		for _, nc := range shapes {
			for _, pad := range []int{0, 3} {
				ldd := nr + pad
				d := make([]float64, nr*ldd)
				r.fill(d)
				want := make([]float64, nr*nc)
				r.fill(want)
				got := make([]float64, len(want))
				copy(got, want)
				trsmLowerUnitLeftScalar(want, nr, nc, d, ldd)
				TrsmLowerUnitLeft(got, nr, nc, d, ldd)
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("nr=%d nc=%d ldd=%d: element %d differs", nr, nc, ldd, i)
				}
			}
		}
	}
}

func TestRank1TrailingGolden(t *testing.T) {
	t.Parallel()
	r := &rng{s: 4}
	for _, n := range shapes {
		for k := 0; k < n; k++ {
			want := make([]float64, n*n)
			r.fill(want)
			got := make([]float64, len(want))
			copy(got, want)
			rank1TrailingScalar(want, n, k)
			Rank1Trailing(got, n, k)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("n=%d k=%d: element %d differs", n, k, i)
			}
		}
	}
}

func TestSpAxpyGolden(t *testing.T) {
	t.Parallel()
	r := &rng{s: 5}
	const n = 64
	for _, nnz := range shapes {
		if nnz > n {
			continue
		}
		ind := ascendingIndices(r, nnz, n)
		val := make([]float64, nnz)
		r.fill(val)
		for _, alpha := range []float64{0.75, -0.25, 1} {
			want := make([]float64, n)
			r.fill(want)
			got := make([]float64, n)
			copy(got, want)
			spAxpyScalar(want, ind, val, alpha)
			SpAxpy(got, ind, val, alpha)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("nnz=%d alpha=%v: element %d differs", nnz, alpha, i)
			}
		}
	}
}

// fillSpecial is fill with about one element in six replaced by a value
// the fused kernels must treat exactly as the plain loop does: -0, ±Inf,
// NaN (one payload, so the result does not depend on which operand of a
// product the hardware propagates).
func (r *rng) fillSpecial(x []float64) {
	specials := [...]float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	r.fill(x)
	for i := range x {
		if u := r.next(); u%6 == 0 {
			x[i] = specials[(u/6)%uint64(len(specials))]
		}
	}
}

// supernodeRun lays out nc columns of one supernode as the factorization
// stores them: column c holds nc-1-c diagonal-block values, then its m
// values for the shared rows; end[c] is where column c stops.
func supernodeRun(r *rng, nc, m int) (val []float64, end []int) {
	end = make([]int, nc)
	for c := range end {
		val = append(val, make([]float64, nc-1-c+m)...)
		end[c] = len(val)
	}
	r.fillSpecial(val)
	return val, end
}

// checkSpAxpyCols compares the grouped kernel and, where the run is wide
// enough, the two bodies with their plain-loop oracles on one supernode
// run of nc columns over m shared rows.
func checkSpAxpyCols(t *testing.T, r *rng, nc, m int) {
	t.Helper()
	const n = 80
	ind := ascendingIndices(r, m, n)
	val, end := supernodeRun(r, nc, len(ind))
	u := make([]float64, nc)
	r.fillSpecial(u) // zeros and -0 among them: the per-column fallback
	col := func(c int) []float64 { return val[end[c]-len(ind) : end[c]] }
	want := make([]float64, n)
	r.fillSpecial(want)
	got := make([]float64, n)

	copy(got, want)
	ref := append([]float64(nil), want...)
	spAxpyColsScalar(ref, ind, val, end, u)
	SpAxpyCols(got, ind, val, end, u)
	if i, ok := bitsEqual(ref, got); !ok {
		t.Fatalf("SpAxpyCols nc=%d m=%d: element %d differs: oracle %x kernel %x",
			nc, m, i, math.Float64bits(ref[i]), math.Float64bits(got[i]))
	}
	// The run's diagonal block: its columns start where the shared rows
	// of the previous column end.
	start := append([]int{0}, end[:max(nc-1, 0)]...)
	uRef, uGot := make([]float64, nc), make([]float64, nc)
	copy(got, want)
	ref = append(ref[:0], want...)
	spTriColsScalar(ref[:nc], val, start, uRef)
	SpTriCols(got[:nc], val, start, uGot)
	if i, ok := bitsEqual(append(ref, uRef...), append(got, uGot...)); !ok {
		t.Fatalf("SpTriCols nc=%d: element %d differs", nc, i)
	}
	if nc >= 4 {
		copy(got, want)
		ref = append(ref[:0], want...)
		spAxpy4Scalar(ref, ind, col(0), col(1), col(2), col(3), u[0], u[1], u[2], u[3])
		SpAxpy4(got, ind, col(0), col(1), col(2), col(3), u[0], u[1], u[2], u[3])
		if i, ok := bitsEqual(ref, got); !ok {
			t.Fatalf("SpAxpy4 m=%d: element %d differs", m, i)
		}
	}
	if nc >= 2 {
		copy(got, want)
		ref = append(ref[:0], want...)
		spAxpy2Scalar(ref, ind, col(0), col(1), u[0], u[1])
		SpAxpy2(got, ind, col(0), col(1), u[0], u[1])
		if i, ok := bitsEqual(ref, got); !ok {
			t.Fatalf("SpAxpy2 m=%d: element %d differs", m, i)
		}
	}
}

func TestSpAxpyColsGolden(t *testing.T) {
	t.Parallel()
	r := &rng{s: 10}
	for _, m := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64} {
		for _, nc := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 24} {
			for rep := 0; rep < 4; rep++ {
				checkSpAxpyCols(t, r, nc, m)
			}
		}
	}
}

func TestSpDotSubGolden(t *testing.T) {
	t.Parallel()
	r := &rng{s: 6}
	const n = 64
	x := make([]float64, n)
	r.fill(x)
	for _, nnz := range shapes {
		if nnz > n {
			continue
		}
		ind := ascendingIndices(r, nnz, n)
		val := make([]float64, nnz)
		r.fill(val)
		s0 := r.f64()
		want := spDotSubScalar(s0, ind, val, x)
		got := SpDotSub(s0, ind, val, x)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("nnz=%d: oracle %x kernel %x", nnz, math.Float64bits(want), math.Float64bits(got))
		}
	}
}

// ascendingIndices draws nnz distinct ascending indices in [0, n).
func ascendingIndices(r *rng, nnz, n int) []int {
	ind := make([]int, 0, nnz)
	for i := 0; i < n && len(ind) < nnz; i++ {
		if int(r.next()%uint64(n-i)) < nnz-len(ind) {
			ind = append(ind, i)
		}
	}
	return ind
}

// sparseTriangular builds a random sparse triangle in the column form
// the solves consume. lower: strictly-lower entries only (unit diagonal
// implied). upper: strictly-upper entries plus the diagonal stored last,
// diagonal forced nonzero.
func sparseTriangular(r *rng, n int, lower bool) (ptr, ind []int, val []float64) {
	ptr = make([]int, n+1)
	for j := 0; j < n; j++ {
		ptr[j] = len(ind)
		if lower {
			for i := j + 1; i < n; i++ {
				if r.next()%3 == 0 {
					ind = append(ind, i)
					val = append(val, r.f64())
				}
			}
		} else {
			for i := 0; i < j; i++ {
				if r.next()%3 == 0 {
					ind = append(ind, i)
					val = append(val, r.f64())
				}
			}
			ind = append(ind, j)
			val = append(val, 1+float64(j%5))
		}
	}
	ptr[n] = len(ind)
	return ptr, ind, val
}

func TestSolveSparseMultiGolden(t *testing.T) {
	t.Parallel()
	r := &rng{s: 7}
	for _, n := range []int{1, 2, 5, 16, 33} {
		lptr, lind, lval := sparseTriangular(r, n, true)
		uptr, uind, uval := sparseTriangular(r, n, false)
		for _, nrhs := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12} {
			want := make([]float64, n*nrhs)
			r.fill(want)
			// Plant exact zeros and negative zeros in whole quads and in
			// single lanes so both the fused path and the per-vector
			// fallback run.
			for i := 0; i < len(want); i += 5 {
				want[i] = 0
			}
			if len(want) > 3 {
				want[3] = math.Copysign(0, -1)
			}
			got := make([]float64, len(want))
			copy(got, want)
			solveSparseLMultiScalar(want, n, nrhs, lptr, lind, lval)
			solveSparseUMultiScalar(want, n, nrhs, uptr, uind, uval)
			SolveSparseLMulti(got, n, nrhs, lptr, lind, lval)
			SolveSparseUMulti(got, n, nrhs, uptr, uind, uval)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("n=%d nrhs=%d: element %d differs: oracle %x kernel %x",
					n, nrhs, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
			}
		}
	}
}

// TestConcurrentReadOnlyOperands drives the kernels from many
// goroutines sharing the read-only operands (the broadcast L and U
// panels of the distributed engine) with private outputs; run under
// -race this proves the kernels never write to their inputs.
func TestConcurrentReadOnlyOperands(t *testing.T) {
	t.Parallel()
	r := &rng{s: 8}
	const m, n, k = 17, 12, 8
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	d := make([]float64, n*n)
	r.fill(a)
	r.fill(b)
	r.fill(d)
	for i := 0; i < n; i++ {
		d[i*n+i] = 2
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			gr := &rng{s: seed}
			p := make([]float64, m*n)
			bb := make([]float64, m*n)
			gr.fill(bb)
			for iter := 0; iter < 50; iter++ {
				MatMul(p, a, b, m, n, k)
				TrsmUpperRight(bb, m, n, d, n)
			}
		}(uint64(g) + 100)
	}
	wg.Wait()
}

// Zero-allocation proof for the hot kernels. Not parallel:
// testing.AllocsPerRun panics inside a parallel test.
func TestKernelsZeroAlloc(t *testing.T) {
	r := &rng{s: 9}
	const m, n, k = 24, 24, 24
	a := make([]float64, m*k)
	b := make([]float64, k*n)
	p := make([]float64, m*n)
	d := make([]float64, n*n)
	w := make([]float64, 64)
	ind := ascendingIndices(r, 16, 64)
	val := make([]float64, 16)
	r.fill(a)
	r.fill(b)
	r.fill(d)
	r.fill(val)
	for i := 0; i < n; i++ {
		d[i*n+i] = 2
	}
	lptr, lind, lval := sparseTriangular(r, 32, true)
	uptr, uind, uval := sparseTriangular(r, 32, false)
	x := make([]float64, 32*8)
	// Seven columns, one multiplier zero: the 4-column group falls back
	// to single columns, the 2-column body and the odd column run.
	run, runEnd := supernodeRun(r, 7, len(ind))
	runU := []float64{0.5, 0, 0.25, 1, 2, -1, 0.125}
	runStart := append([]int{0}, runEnd[:6]...)

	allocs := testing.AllocsPerRun(10, func() {
		MatMul(p, a, b, m, n, k)
		TrsmUpperRight(p, m, n, d, n)
		TrsmLowerUnitLeft(p, m, n, d, m)
		Rank1Trailing(d, n, 3)
		SpAxpy(w, ind, val, 0.5)
		SpTriCols(w[:len(runU)], run, runStart, runU)
		SpAxpyCols(w, ind, run, runEnd, runU)
		_ = SpDotSub(1, ind, val, w)
		r.fill(x)
		SolveSparseLMulti(x, 32, 8, lptr, lind, lval)
		SolveSparseUMulti(x, 32, 8, uptr, uind, uval)
	})
	if allocs != 0 {
		t.Errorf("%v allocs/op, want 0", allocs)
	}
}

// FuzzMatMulMatchesOracle extends the golden grid to arbitrary shapes
// (each dimension folded into 0..40) and operand seeds.
func FuzzMatMulMatchesOracle(f *testing.F) {
	f.Add(uint8(5), uint8(7), uint8(3), uint64(1))
	f.Add(uint8(24), uint8(24), uint8(24), uint64(2))
	f.Add(uint8(0), uint8(4), uint8(9), uint64(3))
	f.Fuzz(func(t *testing.T, m, n, k uint8, seed uint64) {
		checkMatMul(t, &rng{s: seed}, int(m)%41, int(n)%41, int(k)%41)
	})
}

// FuzzSpAxpyColsMatchesOracle extends the golden grid of the fused column
// kernels to arbitrary run widths (0..40), row counts (0..80) and seeds.
func FuzzSpAxpyColsMatchesOracle(f *testing.F) {
	f.Add(uint8(24), uint8(64), uint64(1))
	f.Add(uint8(7), uint8(3), uint64(2))
	f.Add(uint8(0), uint8(9), uint64(3))
	f.Fuzz(func(t *testing.T, nc, m uint8, seed uint64) {
		checkSpAxpyCols(t, &rng{s: seed}, int(nc)%41, int(m)%81)
	})
}
