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

// searchIndex is the reference index map: a binary search per element.
func searchIndex(ids []int, v int) int {
	if i := sort.SearchInts(ids, v); i < len(ids) && ids[i] == v {
		return i
	}
	return -1
}

// rankBUpdateScalar is the reference RankBUpdateInto is pinned against:
// the strip-mined loop the engines ran before the update became one
// packed kernels.MatMul call, locating every operand row and column in
// the target by binary search. It reads U in place, skips zero U
// entries one at a time, and counts 2·nrL flops per executed axpy.
func (t *Block) rankBUpdateScalar(l, u *Block, ws *UpdateScratch) int64 {
	nrL, nrT := l.NR(), t.NR()
	ncU, nrU := u.NC(), u.NR()
	bk := l.NC() // supernode K width; equals u.NR()
	ws.ensure(nrL, ncU, 0)
	rowMap, colMap, prod := ws.rowMap, ws.colMap, ws.prod
	for i, r := range l.Rows {
		rowMap[i] = searchIndex(t.Rows, r)
	}
	nMapped := 0
	for c, cGlobal := range u.Cols {
		colMap[c] = searchIndex(t.Cols, cGlobal)
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

// indexSet returns n ascending global indices from base on: one
// contiguous range (a supernode's, as a diagonal block's rows and
// columns, a U block's rows and an L block's columns are), or every
// other index (a subset, as an L block's rows or a U block's columns).
func indexSet(n, base int, contiguous bool) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = base + i
		if !contiguous {
			ids[i] = base + 2*i
		}
	}
	return ids
}

// relaxedSubset picks n of the target's indices for an operand and
// makes one of them absent from the target, as relaxed-supernode
// padding does: past the end of a contiguous target, or in a gap of a
// subset.
func relaxedSubset(rng *rand.Rand, target []int, n int, contiguous bool) []int {
	ids := pickN(rng, target, n)
	if contiguous {
		ids[n-1] = target[len(target)-1] + 1 + rng.Intn(3)
	} else {
		ids[n-1]++ // odd: in a gap of the even target
	}
	return ids
}

// TestMapInto pins the index maps against a binary search per element,
// on contiguous targets (the offset path) and subset targets (the merge
// walk), with operand indices below, inside and above the target and in
// its gaps, all of which the target lacks map to -1.
func TestMapInto(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(50))
	for trial := 0; trial < 200; trial++ {
		into := indexSet(1+rng.Intn(30), 10+rng.Intn(5), trial%2 == 0)
		ids := make([]int, 0, 40)
		for v := 0; v < into[len(into)-1]+10; v++ {
			if rng.Intn(3) == 0 {
				ids = append(ids, v)
			}
		}
		m := make([]int, len(ids))
		mapInto(m, ids, into)
		for i, v := range ids {
			if want := searchIndex(into, v); m[i] != want {
				t.Fatalf("trial %d: id %d maps to %d in %v, want %d", trial, v, m[i], into, want)
			}
		}
	}
}

// TestRankBUpdateMatchesReference pins the Schur update against
// rankBUpdateScalar bitwise — target block and returned flop count,
// which the simulator's virtual clock is fed — on operand shapes that
// straddle the register block, for every target kind the engines meet
// (a diagonal block: rows and columns mapped by range; an L block: rows
// by merge walk, columns by range; a U block: rows by range, columns by
// merge walk; and both by merge walk), with relaxed-supernode padding
// (operand rows and columns absent from the target, mapped to -1 and
// skipped) and with one dirty scratch reused across every shape, the
// way the engines actually call it.
func TestRankBUpdateMatchesReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(51))
	var ws UpdateScratch // reused, never cleared

	shapes := []struct{ nrL, bk, ncU int }{
		{1, 1, 1}, {3, 2, 2}, {4, 4, 4}, {5, 3, 7}, {8, 8, 8},
		{17, 5, 9}, {24, 24, 24}, {31, 7, 12}, {65, 24, 17}, {200, 24, 24},
	}
	kinds := []struct {
		name               string
		rowRange, colRange bool
	}{{"diag", true, true}, {"L", false, true}, {"U", true, false}, {"merge", false, false}}
	for trial, sh := range shapes {
		kind := kinds[trial%len(kinds)]
		// Global index sets: the target covers a wide range; the operands
		// cover subsets, plus rows/cols outside the target to exercise
		// the relaxed-supernode (-1 map) path.
		tRows := indexSet(sh.nrL+8, 0, kind.rowRange)
		tCols := indexSet(sh.ncU+8, 1000, kind.colRange)
		lRows := relaxedSubset(rng, tRows, sh.nrL, kind.rowRange)
		uCols := relaxedSubset(rng, tCols, sh.ncU, kind.colRange)
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
			t.Fatalf("trial %d (%s target): flop count %d, reference %d", trial, kind.name, gotFlops, wantFlops)
		}
		for i := range want.Val {
			if math.Float64bits(want.Val[i]) != math.Float64bits(got.Val[i]) {
				t.Fatalf("trial %d (%s target): element %d differs from the reference", trial, kind.name, i)
			}
		}
	}
}

// TestRankBUpdateZeroAlloc proves the Schur-update hot path allocates
// nothing once its scratch is warm, through both index maps: a
// diagonal-like target (range maps) and a subset target with relaxed
// operands (merge walks, absent indices). Not parallel:
// testing.AllocsPerRun panics inside a parallel test.
func TestRankBUpdateZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	kc := indexSet(24, 500, true)
	rangeT := NewBlock(indexSet(48, 0, true), indexSet(32, 1000, true))
	mergeT := NewBlock(indexSet(48, 0, false), indexSet(32, 1000, false))
	l := NewBlock(relaxedSubset(rng, mergeT.Rows, 40, false), kc)
	u := NewBlock(kc, relaxedSubset(rng, mergeT.Cols, 16, false))
	lr := NewBlock(indexSet(48, 0, true), kc)
	ur := NewBlock(kc, indexSet(16, 1000, true))
	for _, b := range []*Block{l, u, lr, ur} {
		fillBlock(rng, b)
	}

	var ws UpdateScratch
	rangeT.RankBUpdateInto(lr, ur, &ws) // warm the scratch
	mergeT.RankBUpdateInto(l, u, &ws)
	allocs := testing.AllocsPerRun(10, func() {
		rangeT.RankBUpdateInto(lr, ur, &ws)
		mergeT.RankBUpdateInto(l, u, &ws)
	})
	if allocs != 0 {
		t.Errorf("%v allocs/op, want 0", allocs)
	}
}
