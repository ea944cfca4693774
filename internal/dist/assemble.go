package dist

import (
	"math"
	"sort"

	"gesp/internal/lu"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// Assemble gathers factored blocks into serial lu.Factors storage
// (LVal/UVal in the symbolic pattern order, ColAMax from the factored
// matrix a), reading the entry at global (i, j) of block (bi, bj)
// through at. It is the one read path from either block store — the
// in-process BlockGrid (pass its At method) and the distributed
// ownership maps (AssembleFactors) — to everything that consumes
// column-format factors.
func Assemble(a *sparse.CSC, sym *symbolic.Result, at func(bi, bj, i, j int) float64) *lu.Factors {
	f := &lu.Factors{
		Sym:     sym,
		LVal:    make([]float64, sym.NnzL()),
		UVal:    make([]float64, sym.NnzU()),
		ColAMax: make([]float64, sym.N),
	}
	for j := 0; j < sym.N; j++ {
		cmax := 0.0
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if v := math.Abs(a.Val[k]); v > cmax {
				cmax = v
			}
		}
		f.ColAMax[j] = cmax
		bj := sym.SupOf[j]
		for p := sym.UPtr[j]; p < sym.UPtr[j+1]; p++ {
			i := sym.UInd[p]
			f.UVal[p] = at(sym.SupOf[i], bj, i, j)
		}
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			i := sym.LInd[q]
			f.LVal[q] = at(sym.SupOf[i], bj, i, j)
		}
	}
	return f
}

// AssembleFactors gathers the factored distributed blocks of a, one
// ownership map per rank, into serial lu.Factors. The fault-tolerant
// driver uses it to fingerprint a recovered factorization against a
// fault-free run; it also lets any serial tool (condition estimation,
// pivot growth, the resilience ladder) consume a distributed
// factorization.
func AssembleFactors(a *sparse.CSC, st *Structure, blockSets []map[int]*Block) *lu.Factors {
	ns := st.N
	all := make(map[int]*Block, 0)
	for _, bs := range blockSets {
		// Key-indexed overlay into one map: insertion order is irrelevant
		// (ownership is disjoint), so map iteration order cannot leak.
		//gesp:unordered
		for k, b := range bs {
			all[k] = b
		}
	}
	return Assemble(a, st.Sym, func(bi, bj, i, j int) float64 {
		return blockAt(all[bi*ns+bj], i, j)
	})
}

// blockAt reads a block entry by global coordinates, treating a missing
// block or row as structural zero (possible only with relaxed
// supernodes, where the symbolic pattern can pad beyond the blocks'
// lead-column skeleton).
func blockAt(b *Block, i, j int) float64 {
	if b == nil {
		return 0
	}
	ri := sort.SearchInts(b.Rows, i)
	if ri >= len(b.Rows) || b.Rows[ri] != i {
		return 0
	}
	ci := sort.SearchInts(b.Cols, j)
	if ci >= len(b.Cols) || b.Cols[ci] != j {
		return 0
	}
	return b.Val[ci*b.NR()+ri]
}
