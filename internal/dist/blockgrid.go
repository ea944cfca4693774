package dist

import (
	"fmt"
	"math"
	"sort"

	"gesp/internal/check"
	"gesp/internal/lu"
	"gesp/internal/sparse"
)

// BlockGrid is the one block store: each simulated rank keeps its
// numbers in dense slices parallel to Structure.LBlocks/UBlocks, so
// the right-looking loops index blocks directly and no storage is spent
// on structurally-absent blocks. A rank's grid has the same shape as
// everyone else's and leaves the slots of blocks it does not own nil.
type BlockGrid struct {
	St   *Structure
	Diag []*Block   // Diag[k] is the dense diagonal block of supernode k
	L    [][]*Block // L[k] parallel to St.LBlocks[k]
	U    [][]*Block // U[k] parallel to St.UBlocks[k]

	// slots holds every structural block by id — diagonals first, then
	// per supernode its L panel followed by its U row; Diag, L[k] and
	// U[k] are views into it. Ids depend on the structure alone, so they
	// name the same block on every rank: checkpoints are written in their
	// order.
	slots []*Block
	base  []int // base[k] is the id of L[k][0]
	own   func(i, j int) bool
}

// NewGrid allocates the zero-filled structural blocks (i, j) of the
// fill pattern that own selects — all of them when own is nil.
func NewGrid(st *Structure, own func(i, j int) bool) *BlockGrid {
	ns := st.N
	g := &BlockGrid{St: st, L: make([][]*Block, ns), U: make([][]*Block, ns), base: make([]int, ns+1), own: own}
	g.base[0] = ns
	for k := 0; k < ns; k++ {
		g.base[k+1] = g.base[k] + len(st.LBlocks[k]) + len(st.UBlocks[k])
	}
	g.slots = make([]*Block, g.base[ns])
	g.Diag = g.slots[:ns:ns]
	ids := rangeInts(0, st.Sym.N) // every supernode's index range is a view of it
	for k := 0; k < ns; k++ {
		lo, hi := st.SupCols(k)
		cols := ids[lo:hi:hi]
		if own == nil || own(k, k) {
			g.Diag[k] = NewBlock(cols, cols)
		}
		mid := g.base[k] + len(st.LBlocks[k])
		g.L[k] = g.slots[g.base[k]:mid:mid]
		g.U[k] = g.slots[mid:g.base[k+1]:g.base[k+1]]
		for i, lb := range st.LBlocks[k] {
			if own == nil || own(lb.I, k) {
				g.L[k][i] = NewBlock(lb.Rows, cols)
			}
		}
		for j, ub := range st.UBlocks[k] {
			if own == nil || own(k, ub.J) {
				g.U[k][j] = NewBlock(cols, ub.Cols)
			}
		}
	}
	return g
}

// Target returns this grid's block (i, j), or nil when the block is
// structurally absent or owned elsewhere.
func (g *BlockGrid) Target(i, j int) *Block {
	id := -1
	switch {
	case i == j:
		id = i
	case i > j:
		lbs := g.St.LBlocks[j]
		if p := sort.Search(len(lbs), func(q int) bool { return lbs[q].I >= i }); p < len(lbs) && lbs[p].I == i {
			id = g.base[j] + p
		}
	default:
		ubs := g.St.UBlocks[i]
		if p := sort.Search(len(ubs), func(q int) bool { return ubs[q].J >= j }); p < len(ubs) && ubs[p].J == j {
			id = g.base[i] + len(g.St.LBlocks[i]) + p
		}
	}
	if id < 0 {
		return nil
	}
	return g.slots[id]
}

// Scatter adds the numeric entries of the permuted matrix that fall in
// this grid's blocks; the blocks must have been freshly allocated (zero).
func (g *BlockGrid) Scatter(a *sparse.CSC) {
	sup := g.St.Sym.SupOf
	for j := 0; j < a.Cols; j++ {
		bj := sup[j]
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowInd[p]
			if g.own != nil && !g.own(sup[i], bj) {
				continue
			}
			b := g.Target(sup[i], bj)
			if b == nil {
				// A's pattern is contained in L+U's, so the block exists.
				panic("dist: A entry outside the static block skeleton")
			}
			b.Set(i, j, a.Val[p])
		}
	}
}

// Factors gathers the factored blocks into serial lu.Factors storage
// (LVal/UVal in the symbolic pattern order, ColAMax from the factored
// matrix a) — the one read path from blocks to everything that consumes
// column-format factors: the solvers, condition estimation, pivot
// growth, the resilience ladder, the recovery fingerprint. A pattern
// entry with no block, row or column behind it is a structural zero
// (relaxed supernodes pad the symbolic pattern beyond the blocks'
// lead-column skeleton).
func (g *BlockGrid) Factors(a *sparse.CSC) *lu.Factors {
	sym := g.St.Sym
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
		g.gatherCol(f.UVal[sym.UPtr[j]:sym.UPtr[j+1]], sym.UInd[sym.UPtr[j]:sym.UPtr[j+1]], j)
		g.gatherCol(f.LVal[sym.LPtr[j]:sym.LPtr[j+1]], sym.LInd[sym.LPtr[j]:sym.LPtr[j+1]], j)
	}
	return f
}

// gatherCol copies column j's entries at the ascending global rows into
// dst (zero on entry), resolving the block once per run of rows in one
// supernode and walking its ascending row list alongside.
func (g *BlockGrid) gatherCol(dst []float64, rows []int, j int) {
	sup := g.St.Sym.SupOf
	for p := 0; p < len(rows); {
		bi := sup[rows[p]]
		end := p + 1
		for end < len(rows) && sup[rows[end]] == bi {
			end++
		}
		if b := g.Target(bi, sup[j]); b != nil {
			if c := lookup(b.Cols, j); c >= 0 {
				col := b.Val[c*b.NR() : (c+1)*b.NR()]
				ri := 0
				for ; p < end; p++ {
					for ri < len(b.Rows) && b.Rows[ri] < rows[p] {
						ri++
					}
					if ri < len(b.Rows) && b.Rows[ri] == rows[p] {
						dst[p] = col[ri]
					}
				}
			}
		}
		p = end
	}
}

// mergeGrids overlays the per-rank grids of one distributed run into a
// grid over the whole structure (sharing the ranks' blocks), so Factors
// can read a distributed factorization.
func mergeGrids(grids []*BlockGrid) *BlockGrid {
	all := NewGrid(grids[0].St, func(i, j int) bool { return false })
	all.own = nil
	for id := range all.slots {
		owners := 0
		for _, g := range grids {
			if b := g.slots[id]; b != nil {
				all.slots[id] = b
				owners++
			}
		}
		if check.Enabled && owners != 1 {
			check.Must(fmt.Errorf("dist: structural block %d is owned by %d ranks, want exactly one", id, owners))
		}
	}
	return all
}
