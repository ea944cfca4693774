package kernels

import (
	"math"
	"testing"
)

// wide returns a value with a full random mantissa, a sign and a binary
// exponent in [-20, 20], so products round and subtractions cancel.
func (r *rng) wide() float64 {
	u := r.next()
	v := math.Ldexp(float64(u>>11)/(1<<53)+0.5, int(u%41)-20)
	if u&(1<<10) != 0 {
		v = -v
	}
	return v
}

// specials plants in x (b vectors of length n, column-major) the values
// whose bits the tile sweeps must carry as the scalar loop does: -0, NaN,
// +Inf and -Inf each in a vector of its own, and a row zero in every
// vector.
func specials(r *rng, x []float64, n, b int) {
	for l, v := range []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		if l < b {
			x[l*n+int(r.next()%uint64(n))] = v
		}
	}
	row := int(r.next() % uint64(n))
	for l := 0; l < b; l++ {
		x[l*n+row] = 0
	}
}

// TestTileSweepsMatchOracle packs b ≤ Lanes vectors into a tile, sweeps
// L then U over it with the Go body and, where the CPU has it, the AVX2
// body, unpacks, and compares every bit with the column-major scalar
// oracle; the padding lanes must not change a real lane either.
func TestTileSweepsMatchOracle(t *testing.T) {
	t.Parallel()
	r := &rng{s: 11}
	for _, n := range []int{1, 2, 5, 16, 33, 80} {
		lo, up := tileFactors(r, n)
		for _, b := range []int{1, 2, 3, 7, 8} {
			for trial := 0; trial <= b; trial++ {
				checkTileSweeps(t, r, n, b, trial, lo, up)
			}
		}
	}
}

// FuzzSolveTileMatchesOracle extends TestTileSweepsMatchOracle to any
// order n in 1..64, batch of 1..Lanes vectors, trial and seed. The AVX2
// body does not check its row indices, so every shape must land where
// the scalar sweep lands, bit for bit.
func FuzzSolveTileMatchesOracle(f *testing.F) {
	f.Add(uint8(16), uint8(8), uint8(0), uint64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint64(2))
	f.Add(uint8(63), uint8(3), uint8(2), uint64(3))
	f.Add(uint8(33), uint8(7), uint8(5), uint64(4))
	f.Fuzz(func(t *testing.T, n, b, trial uint8, seed uint64) {
		r := &rng{s: seed}
		nn, bb := 1+int(n)%64, 1+int(b)%Lanes
		lo, up := tileFactors(r, nn)
		checkTileSweeps(t, r, nn, bb, int(trial)%(bb+1), lo, up)
	})
}

// triangle is a sparse triangle in the column form the sweeps take.
type triangle struct {
	ptr, ind []int
	val      []float64
}

// tileFactors draws the L and U of an n-row sweep, L's values with full
// mantissas so products round.
func tileFactors(r *rng, n int) (lo, up triangle) {
	lo.ptr, lo.ind, lo.val = sparseTriangular(r, n, true)
	up.ptr, up.ind, up.val = sparseTriangular(r, n, false)
	for i := range lo.val {
		lo.val[i] = r.wide()
	}
	return lo, up
}

// checkTileSweeps runs one trial of b vectors of length n through
// PackTile, solveTileL and solveTileU on every body the CPU has, and
// UnpackTile, and compares every bit with the scalar oracle. Trial 0:
// one in four entries an exact zero of either sign. Trial l+1: every
// lane dense but lane l, three in four of whose entries are such zeros
// — a column whose pivots are zero in that lane alone, over a -0 row, is
// where skipping the column for that lane and applying it to all differ
// — plus the planted specials.
func checkTileSweeps(t *testing.T, r *rng, n, b, trial int, lo, up triangle) {
	t.Helper()
	special, sparse := trial > 0, trial-1
	want := make([]float64, n*b)
	for i := range want {
		want[i] = r.wide()
		switch u := r.next() % 4; {
		case !special && u == 0, special && i/n == sparse && u < 3:
			want[i] = math.Copysign(0, want[i])
		}
	}
	if special {
		specials(r, want, n, b)
	}
	x0 := append([]float64(nil), want...)
	solveSparseLMultiScalar(want, n, b, lo.ptr, lo.ind, lo.val)
	solveSparseUMultiScalar(want, n, b, up.ptr, up.ind, up.val)
	bodies := []bool{false}
	if useAVX2 {
		bodies = append(bodies, true)
	}
	for _, avx := range bodies {
		tile := make([]float64, Lanes*n)
		got := append([]float64(nil), x0...)
		PackTile(tile, got, n, b)
		solveTileL(tile, n, lo.ptr, lo.ind, lo.val, avx)
		solveTileU(tile, n, up.ptr, up.ind, up.val, avx)
		UnpackTile(got, tile, n, b)
		if i, ok := bitsEqual(want, got); !ok {
			t.Fatalf("n=%d b=%d trial=%d avx=%v: element %d differs: oracle %x tile %x",
				n, b, trial, avx, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
		}
	}
}

// TestTileAVX2MatchesGo runs the assembly body and its Go twin on the
// same tiles — rows and pivots drawn with zeros, -0, NaN and ±Inf among
// them, column lengths across the two-entry unroll — and compares every
// bit of the result.
func TestTileAVX2MatchesGo(t *testing.T) {
	if !useAVX2 {
		t.Skip("CPU without AVX2: the Go body is the only one")
	}
	t.Parallel()
	r := &rng{s: 12}
	odd := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)}
	draw := func() float64 {
		if u := r.next() % 16; u < uint64(len(odd)) {
			return odd[u]
		}
		return r.wide()
	}
	const n = 64
	for _, m := range []int{0, 1, 2, 3, 4, 5, 17, 63} {
		for trial := 0; trial < 20; trial++ {
			ind := ascendingIndices(r, m, n)
			val := make([]float64, m)
			for q := range val {
				val[q] = draw()
			}
			var x [Lanes]float64
			for l := range x {
				x[l] = draw()
			}
			want := make([]float64, Lanes*n)
			for i := range want {
				want[i] = draw()
			}
			got := append([]float64(nil), want...)
			tileAxpy(want, ind, val, &x)
			tileAxpyAVX2(got, ind, val, &x)
			if i, ok := bitsEqual(want, got); !ok {
				t.Fatalf("m=%d trial %d: element %d differs: Go %x AVX2 %x",
					m, trial, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
			}
		}
	}
}
