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
	bodies := []bool{false}
	if useAVX2 {
		bodies = append(bodies, true)
	}
	for _, n := range []int{1, 2, 5, 16, 33, 80} {
		lptr, lind, lval := sparseTriangular(r, n, true)
		uptr, uind, uval := sparseTriangular(r, n, false)
		for i := range lval {
			lval[i] = r.wide()
		}
		for _, b := range []int{1, 2, 3, 7, 8} {
			for trial := 0; trial <= b; trial++ {
				// Trial 0: one in four entries an exact zero of either
				// sign. Trial l+1: every lane dense but lane l, three in
				// four of whose entries are such zeros — a column whose
				// pivots are zero in that lane alone, over a -0 row, is
				// where skipping the column for that lane and applying
				// it to all differ — plus the planted specials.
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
				solveSparseLMultiScalar(want, n, b, lptr, lind, lval)
				solveSparseUMultiScalar(want, n, b, uptr, uind, uval)
				for _, avx := range bodies {
					tile := make([]float64, Lanes*n)
					got := append([]float64(nil), x0...)
					PackTile(tile, got, n, b)
					solveTileL(tile, n, lptr, lind, lval, avx)
					solveTileU(tile, n, uptr, uind, uval, avx)
					UnpackTile(got, tile, n, b)
					if i, ok := bitsEqual(want, got); !ok {
						t.Fatalf("n=%d b=%d special=%v avx=%v: element %d differs: oracle %x tile %x",
							n, b, special, avx, i, math.Float64bits(want[i]), math.Float64bits(got[i]))
					}
				}
			}
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
