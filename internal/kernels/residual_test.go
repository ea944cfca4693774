package kernels

import (
	"fmt"
	"math"
	"testing"
)

// csc is a square sparse matrix in the column form the residual takes.
type csc struct {
	ptr, ind []int
	val      []float64
}

// residualMatrix draws an n×n matrix of about four entries per column,
// rows ascending, values with full mantissas, and every fifth row left
// empty when n > 4 (a row whose denominator is |b| alone).
func residualMatrix(r *rng, n int) csc {
	a := csc{ptr: make([]int, n+1)}
	for j := 0; j < n; j++ {
		for _, i := range ascendingIndices(r, min(n, 1+int(r.next()%6)), n) {
			if n > 4 && i%5 == 4 {
				continue
			}
			a.ind = append(a.ind, i)
			a.val = append(a.val, r.wide())
		}
		a.ptr[j+1] = len(a.ind)
	}
	return a
}

// residualBody is one body of ResidualTile: the assembly, the Go twin,
// or the compensated Go body.
type residualBody struct {
	name       string
	avx, extra bool
}

// residualBodies are the bodies of ResidualTile the CPU can run.
func residualBodies() []residualBody {
	bodies := []residualBody{{"go", false, false}, {"compensated", false, true}}
	if useAVX2 {
		bodies = append(bodies, residualBody{"avx2", true, false})
	}
	return bodies
}

// checkResidualTile packs the b ≤ Lanes vectors in x and rhs (column-major,
// n each) into tiles, runs every body of the tile pass on them, and
// compares r, |A|·|x| and berr bit for bit with ResidualBerr on each
// lane's vector alone: of every lane, padding lanes included, and then
// of the lanes of two sparser sets (the Go bodies take each such lane
// alone).
func checkResidualTile(t *testing.T, label string, a csc, n, b int, x, rhs []float64) {
	t.Helper()
	xt, bt := make([]float64, Lanes*n), make([]float64, Lanes*n)
	PackTile(xt, x, n, b)
	PackTile(bt, rhs, n, b)
	for _, body := range residualBodies() {
		for _, lanes := range []uint8{1<<Lanes - 1, 1<<b - 1, 0x25} {
			checkResidualLanes(t, fmt.Sprintf("%s %s lanes %08b", label, body.name, lanes), a, n, b, x, rhs, xt, bt, lanes, body.avx, body.extra)
		}
	}
}

// checkResidualLanes runs one body of the tile pass on the tiles xt and
// bt and compares the lanes in the set lanes with ResidualBerr. Which of
// two NaNs a sum keeps is its first operand's, and for Go code that is
// the compiler's choice of destination register; the assembly follows
// ResidualBerr's as compiled, and so do the Go bodies. A race-detector
// build's instrumented loads move the choice in Go code, that of the
// oracle and of the per-lane zero path every body takes included: there
// a NaN only has to meet a NaN (the plain build pins the payloads).
func checkResidualLanes(t *testing.T, label string, a csc, n, b int, x, rhs, xt, bt []float64, lanes uint8, avx, extra bool) {
	t.Helper()
	same := func(g, w float64) bool {
		return math.Float64bits(g) == math.Float64bits(w) ||
			raceEnabled && math.IsNaN(g) && math.IsNaN(w)
	}
	r, d, work := make([]float64, Lanes*n), make([]float64, Lanes*n), make([]float64, Lanes*n)
	// Stale values from an earlier pass, which the pass must clear.
	for _, t := range [][]float64{r, d, work} {
		for i := range t {
			t[i] = 1
		}
	}
	var berr [Lanes]float64
	residualTile(r, d, work, n, a.ptr, a.ind, a.val, xt, bt, lanes, extra, &berr, avx)
	for l := 0; l < Lanes; l++ {
		if lanes&(1<<l) == 0 {
			continue
		}
		v := l
		if l >= b {
			v = 0 // a padding lane is a copy of vector 0
		}
		wr, work := make([]float64, n), make([]float64, 2*n)
		want := ResidualBerr(a.ptr, a.ind, a.val, wr, work, x[v*n:(v+1)*n], rhs[v*n:(v+1)*n], extra)
		if math.Float64bits(berr[l]) != math.Float64bits(want) {
			t.Fatalf("%s lane %d: berr %x (%g), alone %x (%g)", label, l, math.Float64bits(berr[l]), berr[l], math.Float64bits(want), want)
		}
		for i := 0; i < n; i++ {
			if g, w := r[i*Lanes+l], wr[i]; !same(g, w) {
				t.Fatalf("%s lane %d row %d: r %x, alone %x", label, l, i, math.Float64bits(g), math.Float64bits(w))
			}
			if g, w := d[i*Lanes+l], work[i]; !same(g, w) {
				t.Fatalf("%s lane %d row %d: |A|·|x| %x, alone %x", label, l, i, math.Float64bits(g), math.Float64bits(w))
			}
		}
	}
}

// residualVectors draws b vectors x and right-hand sides of length n:
// x with full mantissas, one entry in three an exact zero of either sign
// in lane zeroLane (when in range), and rhs near A·x so that residuals
// cancel.
func residualVectors(r *rng, a csc, n, b, zeroLane int) (x, rhs []float64) {
	x, rhs = make([]float64, n*b), make([]float64, n*b)
	for v := 0; v < b; v++ {
		xv, bv := x[v*n:(v+1)*n], rhs[v*n:(v+1)*n]
		for i := range xv {
			xv[i] = r.wide()
			if v == zeroLane && r.next()%3 == 0 {
				xv[i] = math.Copysign(0, xv[i])
			}
		}
		for j := 0; j < n; j++ {
			for q := a.ptr[j]; q < a.ptr[j+1]; q++ {
				bv[a.ind[q]] += a.val[q] * xv[j]
			}
		}
		for i := range bv {
			if r.next()%4 == 0 {
				bv[i] += r.wide() * 0x1p-40
			}
		}
	}
	return x, rhs
}

// TestResidualTileMatchesResidualBerr runs every body of the tile pass
// against ResidualBerr on each vector alone, bit for bit: random systems
// across the tile widths, then the cases that pin the per-lane rules.
func TestResidualTileMatchesResidualBerr(t *testing.T) {
	t.Parallel()
	r := &rng{s: 31}
	for _, n := range []int{1, 2, 5, 16, 33, 80} {
		a := residualMatrix(r, n)
		for _, b := range []int{1, 2, 3, 7, 8} {
			for zeroLane := -1; zeroLane < b; zeroLane++ {
				x, rhs := residualVectors(r, a, n, b, zeroLane)
				checkResidualTile(t, fmt.Sprintf("n=%d b=%d zero lane %d", n, b, zeroLane), a, n, b, x, rhs)
			}
		}
	}

	// Columns 0-3 of a 6×6 matrix all reach row 0; its values there in
	// columns 1 and 2 are +Inf and −Inf. Lane by lane:
	//   0: x = (1, 1, 1, payload NaN, …): row 0's r meets +Inf from
	//      column 1 and −Inf from column 2 (Inf − Inf, a default NaN),
	//      then column 3's payload product: the accumulation's operand
	//      order decides which NaN the row keeps.
	//   1: x_1 = 0: A·x skips column 1, |A|·|x| makes Inf·0, a default
	//      NaN, in d, which then meets column 3's payload.
	//   2: b = 1e308 over A·x = −1e308 in row 5: the residual overflows,
	//      berr +Inf.
	//   3: x_1 = -0 beside finite columns: the skip with a negative zero.
	//   4: every x zero, so every column goes through the per-lane path;
	//      then all 2, so that only column 1 does.
	//   5-7: finite.
	payload, inf := math.NaN(), math.Inf(1)
	if math.Float64bits(payload) == math.Float64bits(defaultNaN) {
		t.Fatal("math.NaN() is the default NaN: the cases below cannot tell operand order")
	}
	const n = 6
	a := csc{
		ptr: []int{0, 2, 4, 6, 8, 9, 11},
		ind: []int{0, 2, 0, 3, 0, 4, 0, 1, 5, 4, 5},
		val: []float64{1.5, 0.25, inf, 1, -inf, 2, 3, -1, 0.75, 1.25, 1},
	}
	rows := [][]float64{
		{1, 1, 1, payload, 1, 1},
		{1, 0, 1, payload, 1, 1},
		{1, 1, 1, 1, 1, -1e308},
		{1, math.Copysign(0, -1), 1, 2, 1, 1},
		{0, 0, 0, 0, 0, 0},
		{0.5, 0.25, 0.125, 1, 2, 4},
		{-1, 1, -1, 1, -1, 1},
		{3, 3, 3, 3, 3, 3},
	}
	x, rhs := make([]float64, n*Lanes), make([]float64, n*Lanes)
	for v, xv := range rows {
		copy(x[v*n:], xv)
		for i := range n {
			rhs[v*n+i] = 1
		}
	}
	rhs[2*n+5] = 1e308
	for _, lane4 := range []float64{0, 2} {
		for i := range n {
			x[4*n+i] = lane4
		}
		checkResidualTile(t, fmt.Sprintf("special lanes, lane 4 all %g", lane4), a, n, Lanes, x, rhs)
		// The same with a NaN payload in A itself, met by a default NaN
		// in x (the product's operand order) in lane 5.
		v, x55 := a.val[9], x[5*n+5]
		a.val[9], x[5*n+5] = payload, defaultNaN
		checkResidualTile(t, fmt.Sprintf("NaN in A, lane 4 all %g", lane4), a, n, Lanes, x, rhs)
		a.val[9], x[5*n+5] = v, x55
	}
}

// TestResidualBerrPassRules drives the berr pass alone on rows the
// accumulation cannot produce, where ResidualBerr's classification must
// hold lane by lane: a nonzero residual over a zero denominator (+Inf), a
// zero residual over one (nothing), an overflowed residual over an
// infinite denominator (+Inf, not the NaN ratio), a NaN in d or r (NaN,
// over any +Inf), and a ratio that overflows.
func TestResidualBerrPassRules(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	// Row by row, per lane: r, d, b.
	type cell struct{ r, d, b float64 }
	lanes := [Lanes][]cell{
		{{-1, 0, 0}, {0.5, 1, 1}},        // +Inf: residual 1 over d = 0
		{{0, 0, 0}, {0.5, 1, 1}},         // 0.5/2: the zero row adds nothing
		{{-inf, inf, 0}, {1, 1, 1}},      // +Inf: overflowed over an infinite d
		{{-inf, 0, 0}, {0, nan, 1}},      // NaN beats +Inf
		{{nan, 1, 1}, {0, 0, 0}},         // NaN residual
		{{-1e300, 1e-300, 0}, {0, 1, 1}}, // the ratio overflows to +Inf
		{{0.25, 1, 1}, {0.75, 2, 1}},     // max(0.75/2, 0.25/3): b − r over d + |b|
		{{0, 0, 0}, {0, 0, 0}},           // nothing at all: berr 0
	}
	const n = 2
	r, d, b := make([]float64, Lanes*n), make([]float64, Lanes*n), make([]float64, Lanes*n)
	for l, cs := range lanes {
		for i, c := range cs {
			r[i*Lanes+l], d[i*Lanes+l], b[i*Lanes+l] = c.r, c.d, c.b
		}
	}
	want := [Lanes]float64{inf, 0.5 / 2, inf, nan, nan, inf, 0.75 / 2, 0}
	for _, avx := range []bool{false, useAVX2} {
		rr := append([]float64(nil), r...)
		var berr [Lanes]float64
		var nanM, infM uint8
		if avx {
			nanM, infM = residualBerrAVX2(rr, d, b, &berr)
		} else {
			nanM, infM = residualBerr(rr, d, b, &berr)
		}
		for l := range berr {
			switch {
			case nanM&(1<<l) != 0:
				berr[l] = nan
			case infM&(1<<l) != 0:
				berr[l] = inf
			}
			if math.Float64bits(berr[l]) != math.Float64bits(want[l]) {
				t.Errorf("avx=%v lane %d: berr %g, want %g", avx, l, berr[l], want[l])
			}
		}
		for k := range rr {
			if w := b[k] - r[k]; math.Float64bits(rr[k]) != math.Float64bits(w) {
				t.Errorf("avx=%v element %d: r %x, want b − r %x", avx, k, math.Float64bits(rr[k]), math.Float64bits(w))
			}
		}
	}
}

// FuzzResidualTileMatchesOracle extends TestResidualTileMatchesResidualBerr
// to any order n in 1..64, batch of 1..Lanes vectors, lane of zeros and
// seed, with -0, NaN and ±Inf planted in x (specials) and in A.
func FuzzResidualTileMatchesOracle(f *testing.F) {
	f.Add(uint8(16), uint8(8), uint8(0), uint64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint64(2))
	f.Add(uint8(63), uint8(3), uint8(2), uint64(3))
	f.Add(uint8(33), uint8(7), uint8(9), uint64(4))
	f.Fuzz(func(t *testing.T, n, b, zero uint8, seed uint64) {
		r := &rng{s: seed}
		nn, bb := 1+int(n)%64, 1+int(b)%Lanes
		a := residualMatrix(r, nn)
		x, rhs := residualVectors(r, a, nn, bb, int(zero)%(Lanes+1)-1)
		if seed%2 == 1 {
			specials(r, x, nn, bb)
			odd := []float64{math.Inf(1), math.Inf(-1), math.NaN(), defaultNaN}
			for q := range a.val {
				if u := r.next(); u%7 == 0 {
					a.val[q] = odd[(u/7)%4]
				}
			}
		}
		checkResidualTile(t, fmt.Sprintf("n=%d b=%d", nn, bb), a, nn, bb, x, rhs)
	})
}
