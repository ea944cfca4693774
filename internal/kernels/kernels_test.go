package kernels

import (
	"fmt"
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

// defaultNaN is the NaN the hardware makes from Inf·0 (on amd64 the
// "real indefinite" 0xfff8000000000000), computed at run time; its bits
// differ from math.NaN()'s payload.
var defaultNaN = func() float64 {
	inf, zero := math.Inf(1), 0.0
	return inf * zero
}()

// fillSpecial is fill with about one element in six replaced by a value
// the fused kernels must treat exactly as the plain loop does: -0, ±Inf,
// and NaN with two payloads, math.NaN()'s and the default NaN. Inf·0 and
// Inf−Inf inside a run make further default NaNs. Where both operands of
// a product or a subtraction are NaN the hardware returns the first
// one's payload, so these inputs pin the kernels' operand order too.
func (r *rng) fillSpecial(x []float64) {
	specials := [...]float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), defaultNaN}
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

// runBodies are the run kernels' bodies to test: the Go twin always, the
// assembly where the CPU has it.
func runBodies() []bool {
	if useAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// checkRun compares both bodies of SpAxpyCols and SpTriCols with their
// plain-loop oracles on one supernode run: val/end as supernodeRun lays
// them out, u the multipliers of the rows below the block, want the
// working column before the update.
func checkRun(t *testing.T, label string, ind []int, val []float64, end []int, u, want []float64) {
	t.Helper()
	nc := len(u)
	ref := append([]float64(nil), want...)
	spAxpyColsScalar(ref, ind, val, end, u)
	// The run's diagonal block: its columns start where the shared rows
	// of the previous column end.
	start := append([]int{0}, end[:max(nc-1, 0)]...)
	triRef := append([]float64(nil), want...)
	uRef := make([]float64, nc)
	spTriColsScalar(triRef[:nc], val, start, uRef)
	for _, avx := range runBodies() {
		got := append([]float64(nil), want...)
		spAxpyCols(got, ind, val, end, u, avx)
		if i, ok := bitsEqual(ref, got); !ok {
			t.Fatalf("SpAxpyCols %s avx=%v: element %d differs: oracle %x kernel %x",
				label, avx, i, math.Float64bits(ref[i]), math.Float64bits(got[i]))
		}
		got = append(got[:0], want...)
		uGot := make([]float64, nc)
		spTriCols(got[:nc], val, start, uGot, avx)
		if i, ok := bitsEqual(append(triRef, uRef...), append(got, uGot...)); !ok {
			t.Fatalf("SpTriCols %s avx=%v: element %d differs", label, avx, i)
		}
	}
}

// checkSpAxpyCols compares the run kernels' bodies and the Go twin's
// four- and two-column bodies with their plain-loop oracles on one
// supernode run of nc columns over m shared rows.
func checkSpAxpyCols(t *testing.T, r *rng, nc, m int) {
	t.Helper()
	const n = 80
	ind := ascendingIndices(r, m, n)
	val, end := supernodeRun(r, nc, len(ind))
	u := make([]float64, nc)
	r.fillSpecial(u) // zeros and -0 among them: they cut the run into stretches
	want := make([]float64, n)
	r.fillSpecial(want)
	checkRun(t, fmt.Sprintf("nc=%d m=%d", nc, m), ind, val, end, u, want)

	col := func(c int) []float64 { return val[end[c]-len(ind) : end[c]] }
	got := make([]float64, n)
	if nc >= 4 {
		copy(got, want)
		ref := append([]float64(nil), want...)
		spAxpy4Scalar(ref, ind, col(0), col(1), col(2), col(3), u[0], u[1], u[2], u[3])
		SpAxpy4(got, ind, col(0), col(1), col(2), col(3), u[0], u[1], u[2], u[3])
		if i, ok := bitsEqual(ref, got); !ok {
			t.Fatalf("SpAxpy4 m=%d: element %d differs", m, i)
		}
	}
	if nc >= 2 {
		copy(got, want)
		ref := append([]float64(nil), want...)
		spAxpy2Scalar(ref, ind, col(0), col(1), u[0], u[1])
		SpAxpy2(got, ind, col(0), col(1), u[0], u[1])
		if i, ok := bitsEqual(ref, got); !ok {
			t.Fatalf("SpAxpy2 m=%d: element %d differs", m, i)
		}
	}
}

// runRows are the row counts the run tests cover: every count around the
// assembly's eight- and four-row turns and its first sixteen-row turn, a
// count that takes every turn and the tail (16+8+4+3), and a tall run.
var runRows = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 31, 64}

func TestSpAxpyColsGolden(t *testing.T) {
	t.Parallel()
	r := &rng{s: 10}
	for _, m := range runRows {
		// Run widths up to and beyond the default MaxSuper of 24.
		for _, nc := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 24, 32, 33, 40} {
			for rep := 0; rep < 4; rep++ {
				checkSpAxpyCols(t, r, nc, m)
			}
		}
	}
}

// TestSpAxpyColsNaNOrder pins the operand order of the run kernels'
// products and subtractions. Each case puts two NaNs of different
// payload into one operation — math.NaN() and a default NaN planted or
// made inside the run by Inf·0 or Inf−Inf — whose result carries the
// first operand's payload, on row counts that reach every turn of the
// assembly.
func TestSpAxpyColsNaNOrder(t *testing.T) {
	t.Parallel()
	payload, inf := math.NaN(), math.Inf(1)
	if math.Float64bits(payload) == math.Float64bits(defaultNaN) {
		t.Fatal("math.NaN() is the default NaN: the cases below cannot tell operand order")
	}
	const nc = 3
	for _, c := range []struct {
		name     string
		u, v, w0 float64 // column 1's multiplier and values; w before the run
		u2       float64 // column 2's multiplier
	}{
		// The product of two NaNs: the value's payload, not u's.
		{"val default u payload", payload, defaultNaN, 1, 1},
		{"val payload u default", defaultNaN, payload, 1, 1},
		// w − Inf·0: w's payload, not the default NaN the product makes.
		{"w payload minus Inf·0", inf, 0, payload, 1},
		// Inf − Inf makes the default NaN in w, which then meets a
		// payload product: w's.
		{"Inf−Inf minus payload", inf, 1, inf, payload},
	} {
		for _, m := range []int{1, 4, 7, 8, 13, 17, 31} {
			ind := make([]int, m)
			for q := range ind {
				ind[q] = nc + 2*q
			}
			val, end := supernodeRun(&rng{s: 13}, nc, m)
			for q := range val {
				val[q] = 0.5
			}
			for q := end[1] - m; q < end[1]; q++ {
				val[q] = c.v
			}
			u := []float64{1, c.u, c.u2}
			want := make([]float64, nc+2*m)
			for i := range want {
				want[i] = c.w0
			}
			checkRun(t, fmt.Sprintf("%s m=%d", c.name, m), ind, val, end, u, want)
		}
	}
	// The diagonal block makes its own multipliers: Inf − Inf in row 1
	// gives column 1 a default-NaN multiplier against payload values over
	// finite rows, and an Inf multiplier over zero values meets payload
	// rows. Eight rows: column 0 updates seven, column 1 six, each through
	// the four-row step and the one-row tail.
	const nb = 8
	for _, c := range []struct {
		name        string
		w0, w1, w   float64 // rows 0, 1 and the rest
		v0, v0r, v1 float64 // column 0's value for row 1 and the rest, column 1's values
	}{
		{"made default u times payload", 1, inf, 1, inf, 0.25, payload},
		{"payload rows minus Inf·0", inf, payload, payload, 0, 0, 1},
	} {
		val, end := supernodeRun(&rng{s: 14}, nb, 0)
		for q := range val {
			val[q] = 0.25
		}
		val[0] = c.v0
		for q := 1; q < end[0]; q++ {
			val[q] = c.v0r
		}
		for q := end[0]; q < end[1]; q++ {
			val[q] = c.v1
		}
		want := make([]float64, nb)
		for i := range want {
			want[i] = c.w
		}
		want[0], want[1] = c.w0, c.w1
		checkRun(t, c.name, nil, val, end, make([]float64, nb), want)
	}
}

// TestSpAxpyColsAVX2MatchesGo runs the assembly bodies and their Go
// twins on the same operands — rows, values and multipliers drawn with
// zeros, -0, both NaNs and ±Inf among them, row counts across the
// sixteen-, eight- and four-row turns, up to 40 columns — and compares
// every bit of the result.
func TestSpAxpyColsAVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2: the Go body is the only one")
	}
	t.Parallel()
	r := &rng{s: 15}
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), defaultNaN, math.Inf(1), math.Inf(-1)}
	draw := func() float64 {
		if u := r.next() % 16; u < uint64(len(odd)) {
			return odd[u]
		}
		return r.wide()
	}
	fill := func(x []float64) {
		for i := range x {
			x[i] = draw()
		}
	}
	const n = 80
	for _, m := range append(runRows, 63) {
		for _, nc := range []int{1, 2, 3, 4, 5, 7, 8, 24, 40} {
			for trial := 0; trial < 4; trial++ {
				ind := ascendingIndices(r, m, n)
				// Columns at scattered places in val.
				val := make([]float64, nc*(m+3))
				fill(val)
				end := make([]int, nc)
				u := make([]float64, nc)
				for k := range end {
					end[k] = m + int(r.next()%uint64(len(val)-m+1))
				}
				fill(u)
				want := make([]float64, n)
				fill(want)
				got := append([]float64(nil), want...)
				spAxpyRun(want, ind, val, end, u)
				spAxpyRunAVX2(got, ind, val, end, u)
				if i, ok := bitsEqual(want, got); !ok {
					t.Fatalf("run m=%d nc=%d trial %d: element %d differs: Go %x AVX2 %x",
						m, nc, trial, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
				}
			}
		}
		for trial := 0; trial < 8; trial++ {
			x, y := make([]float64, m), make([]float64, m)
			fill(x)
			fill(y)
			a := draw()
			got := append([]float64(nil), y...)
			axpy(y, x, a)
			axpyAVX2(got, x, a)
			if i, ok := bitsEqual(y, got); !ok {
				t.Fatalf("axpy m=%d trial %d: element %d differs: Go %x AVX2 %x",
					m, trial, i, math.Float64bits(y[i]), math.Float64bits(got[i]))
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
			SolveSparseLMulti(got, n, nrhs, lptr, lind, lval)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("n=%d nrhs=%d: element %d differs: oracle %x kernel %x",
					n, nrhs, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
			}
		}
	}
}

// TestConcurrentReadOnlyOperands drives the kernels from many
// goroutines sharing the read-only operands (the broadcast L and U
// panels of the distributed engine, the factors of the tile sweeps and
// of the supernode-column update, the matrix and right-hand-side tile of
// the residual pass) with private outputs (each goroutine's own tiles
// and working column); run under -race this proves the kernels never
// write to their inputs, and that a sweep, an update or a residual pass
// writes only its own output. The race detector sees Go's memory
// accesses only, so every kernel with an assembly body runs its Go body
// too; the assembly writes exactly the elements its twin does
// (TestTileAVX2MatchesGo, TestSpAxpyColsAVX2MatchesGo,
// TestResidualTileMatchesResidualBerr).
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
	const nt = 40
	lptr, lind, lval := sparseTriangular(r, nt, true)
	uptr, uind, uval := sparseTriangular(r, nt, false)
	// A 40-column supernode run over 21 shared rows (every row turn of
	// the run body and the tail), its multipliers shared too.
	const nc, nw = 40, 64
	runInd := ascendingIndices(r, 21, nw)
	run, runEnd := supernodeRun(r, nc, len(runInd))
	runU := make([]float64, nc)
	r.fill(runU)
	runStart := append([]int{0}, runEnd[:nc-1]...)
	// One matrix and one right-hand-side tile shared by every residual
	// pass; each goroutine has its own iterate, residual and |A|·|x|.
	ra := residualMatrix(r, nt)
	rb := make([]float64, Lanes*nt)
	r.fill(rb)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			gr := &rng{s: seed}
			p := make([]float64, m*n)
			bb := make([]float64, m*n)
			gr.fill(bb)
			tile := make([]float64, Lanes*nt)
			w := make([]float64, nw)
			u := make([]float64, nc)
			rr, rd, rw := make([]float64, Lanes*nt), make([]float64, Lanes*nt), make([]float64, Lanes*nt)
			var berr [Lanes]float64
			for iter := 0; iter < 50; iter++ {
				MatMul(p, a, b, m, n, k)
				TrsmUpperRight(bb, m, n, d, n)
				for _, avx := range []bool{false, useAVX2} {
					gr.fill(tile)
					solveTileL(tile, nt, lptr, lind, lval, avx)
					solveTileU(tile, nt, uptr, uind, uval, avx)
					residualTile(rr, rd, rw, nt, ra.ptr, ra.ind, ra.val, tile, rb, 0xff, false, &berr, avx)
					gr.fill(w)
					spTriCols(w[:nc], run, runStart, u, avx)
					spAxpyCols(w, runInd, run, runEnd, runU, avx)
				}
				residualTile(rr, rd, rw, nt, ra.ptr, ra.ind, ra.val, tile, rb, 0x13, true, &berr, false)
			}
		}(uint64(g) + 100)
	}
	wg.Wait()
}

// Zero-allocation proof for the hot kernels, every body of those with
// two. Not parallel: testing.AllocsPerRun panics inside a parallel test.
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
	tile := make([]float64, Lanes*32)
	// A 40-column run, one multiplier in four zero: the run goes through
	// in stretches of three columns.
	const nc = 40
	run, runEnd := supernodeRun(r, nc, len(ind))
	runU := make([]float64, nc)
	for c := range runU {
		if c%4 != 1 {
			runU[c] = 0.5 + float64(c)/64
		}
	}
	runStart := append([]int{0}, runEnd[:nc-1]...)
	uOut := make([]float64, nc)
	ra := residualMatrix(r, 32)
	rb, rr, rd, rw := make([]float64, Lanes*32), make([]float64, Lanes*32), make([]float64, Lanes*32), make([]float64, Lanes*32)
	r.fill(rb)
	var berr [Lanes]float64
	res, work := make([]float64, 32), make([]float64, 64)

	allocs := testing.AllocsPerRun(10, func() {
		MatMul(p, a, b, m, n, k)
		TrsmUpperRight(p, m, n, d, n)
		TrsmLowerUnitLeft(p, m, n, d, m)
		Rank1Trailing(d, n, 3)
		SpAxpy(w, ind, val, 0.5)
		SpTriCols(w[:nc], run, runStart, uOut)
		SpAxpyCols(w, ind, run, runEnd, runU)
		for _, avx := range []bool{false, useAVX2} {
			spTriCols(w[:nc], run, runStart, uOut, avx)
			spAxpyCols(w, ind, run, runEnd, runU, avx)
		}
		_ = SpDotSub(1, ind, val, w)
		r.fill(x)
		SolveSparseLMulti(x, 32, 8, lptr, lind, lval)
		r.fill(x)
		PackTile(tile, x, 32, 5)
		SolveTileL(tile, 32, lptr, lind, lval)
		SolveTileU(tile, 32, uptr, uind, uval)
		ResidualTile(rr, rd, rw, 32, ra.ptr, ra.ind, ra.val, tile, rb, 0xff, false, &berr)
		for _, avx := range []bool{false, useAVX2} {
			residualTile(rr, rd, rw, 32, ra.ptr, ra.ind, ra.val, tile, rb, 0xff, false, &berr, avx)
			residualTile(rr, rd, rw, 32, ra.ptr, ra.ind, ra.val, tile, rb, 0x03, false, &berr, avx)
		}
		ResidualTile(rr, rd, rw, 32, ra.ptr, ra.ind, ra.val, tile, rb, 0x81, true, &berr)
		for _, extra := range []bool{false, true} {
			ResidualBerr(ra.ptr, ra.ind, ra.val, res, work, x[:32], rb[:32], extra)
		}
		MirrorLanes(tile, 32, 1, 0xf0)
		UnpackLane(x[:32], tile, 32, 3)
		PackLane(tile, x[:32], 32, 6)
		UnpackTile(x, tile, 32, 5)
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
	f.Add(uint8(33), uint8(17), uint64(4))
	f.Add(uint8(40), uint8(31), uint64(5))
	f.Fuzz(func(t *testing.T, nc, m uint8, seed uint64) {
		checkSpAxpyCols(t, &rng{s: seed}, int(nc)%41, int(m)%81)
	})
}
