package dist

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// pickN returns n of the ids, drawn without replacement, sorted.
func pickN(rng *rand.Rand, ids []int, n int) []int {
	idx := rng.Perm(len(ids))[:n]
	sort.Ints(idx)
	out := make([]int, n)
	for i, q := range idx {
		out[i] = ids[q]
	}
	return out
}

func fillBlock(rng *rand.Rand, b *Block) {
	for i := range b.Val {
		switch rng.Intn(4) {
		case 0:
			b.Val[i] = 0
		default:
			b.Val[i] = rng.NormFloat64()
		}
	}
}

// updateRowTile is the row strip height of the reference product: a
// 192-row strip of a maximally wide (24-column) L panel is ~36 KB, so
// the strip stays cache-resident while every U column sweeps over it.
const updateRowTile = 192

// rankBUpdateScalar is the reference RankBUpdateInto is pinned against:
// the strip-mined loop the engines ran before the update became one
// packed kernels.MatMul call. It reads U in place, skips zero U entries
// one at a time, and counts 2·nrL flops per executed axpy.
func (t *Block) rankBUpdateScalar(l, u *Block, ws *UpdateScratch) int64 {
	nrL, nrT := l.NR(), t.NR()
	ncU, nrU := u.NC(), u.NR()
	bk := l.NC() // supernode K width; equals u.NR()
	ws.ensure(nrL, ncU, 0)
	rowMap, colMap, prod := ws.rowMap, ws.colMap, ws.prod
	for i, r := range l.Rows {
		rowMap[i] = lookup(t.Rows, r)
	}
	nMapped := 0
	for c, cGlobal := range u.Cols {
		colMap[c] = lookup(t.Cols, cGlobal)
		if colMap[c] >= 0 {
			nMapped++
		}
	}
	if nMapped == 0 {
		return 0
	}

	var flops int64
	for r0 := 0; r0 < nrL; r0 += updateRowTile {
		r1 := r0 + updateRowTile
		if r1 > nrL {
			r1 = nrL
		}
		for c := 0; c < ncU; c++ {
			if colMap[c] < 0 {
				continue
			}
			ucol := u.Val[c*nrU : (c+1)*nrU]
			pcol := prod[c*nrL : (c+1)*nrL]
			for i := r0; i < r1; i++ {
				pcol[i] = 0
			}
			for k := 0; k < bk; k++ {
				ukc := ucol[k]
				if ukc == 0 {
					continue
				}
				lcol := l.Val[k*nrL : (k+1)*nrL]
				for i := r0; i < r1; i++ {
					pcol[i] += lcol[i] * ukc
				}
				if r0 == 0 {
					flops += 2 * int64(nrL)
				}
			}
		}
	}
	// Scatter-subtract the dense product through the index maps.
	for c := 0; c < ncU; c++ {
		tc := colMap[c]
		if tc < 0 {
			continue
		}
		tcol := t.Val[tc*nrT : (tc+1)*nrT]
		pcol := prod[c*nrL : (c+1)*nrL]
		for i := 0; i < nrL; i++ {
			if ti := rowMap[i]; ti >= 0 {
				tcol[ti] -= pcol[i]
			}
		}
	}
	return flops
}

// TestRankBUpdateMatchesReference pins the Schur update against
// rankBUpdateScalar bitwise — target block and returned flop count,
// which the simulator's virtual clock is fed — on operand shapes that
// straddle the register block, with relaxed-supernode padding (operand
// rows and columns absent from the target) and with one dirty scratch
// reused across every shape, the way the engines actually call it.
func TestRankBUpdateMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(51))
	var ws UpdateScratch // reused, never cleared

	shapes := []struct{ nrL, bk, ncU int }{
		{1, 1, 1}, {3, 2, 2}, {4, 4, 4}, {5, 3, 7}, {8, 8, 8},
		{17, 5, 9}, {24, 24, 24}, {31, 7, 12}, {65, 24, 17}, {200, 24, 24},
	}
	for trial, sh := range shapes {
		// Global index sets: the target covers a wide range; the operands
		// cover subsets, plus rows/cols outside the target to exercise
		// the relaxed-supernode (-1 map) path.
		tRows := make([]int, sh.nrL+8)
		for i := range tRows {
			tRows[i] = i * 2
		}
		tCols := make([]int, sh.ncU+8)
		for i := range tCols {
			tCols[i] = 1000 + i*2
		}
		lRows := pickN(rng, tRows, sh.nrL)
		lRows[len(lRows)-1]++ // odd: guaranteed absent from the target
		uCols := pickN(rng, tCols, sh.ncU)
		uCols[len(uCols)-1]++
		kCols := make([]int, sh.bk)
		for i := range kCols {
			kCols[i] = 500 + i
		}

		l := NewBlock(lRows, kCols)
		u := NewBlock(kCols, uCols)
		fillBlock(rng, l)
		fillBlock(rng, u)
		want := NewBlock(tRows, tCols)
		fillBlock(rng, want)
		got := NewBlock(tRows, tCols)
		copy(got.Val, want.Val)

		var wsRef UpdateScratch
		wantFlops := want.rankBUpdateScalar(l, u, &wsRef)
		gotFlops := got.RankBUpdateInto(l, u, &ws)
		if gotFlops != wantFlops {
			t.Fatalf("trial %d: flop count %d, reference %d", trial, gotFlops, wantFlops)
		}
		for i := range want.Val {
			if math.Float64bits(want.Val[i]) != math.Float64bits(got.Val[i]) {
				t.Fatalf("trial %d: element %d differs from the reference", trial, i)
			}
		}
	}
}

// TestRankBUpdateZeroAlloc proves the Schur-update hot path allocates
// nothing once its scratch is warm. Not parallel: testing.AllocsPerRun
// panics inside a parallel test.
func TestRankBUpdateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	rows := make([]int, 48)
	for i := range rows {
		rows[i] = i
	}
	kc := rows[:24]
	l := NewBlock(rows, kc)
	u := NewBlock(kc, rows[:16])
	tgt := NewBlock(rows, rows[:32])
	fillBlock(rng, l)
	fillBlock(rng, u)

	var ws UpdateScratch
	tgt.RankBUpdateInto(l, u, &ws) // warm the scratch
	allocs := testing.AllocsPerRun(10, func() {
		tgt.RankBUpdateInto(l, u, &ws)
	})
	if allocs != 0 {
		t.Errorf("%v allocs/op, want 0", allocs)
	}
}
