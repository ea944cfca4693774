package dist

import (
	"fmt"
	"math"

	"gesp/internal/check"
	"gesp/internal/lu"
	"gesp/internal/sparse"
)

// BlockGrid is the one block store: a set of the skeleton's blocks,
// each named by its structural id (see Structure). A rank's grid holds
// only the blocks the 2-D block-cyclic layout gives it, so a rank's
// memory and every walk over its grid scale with its own share; the
// ids name the same block on every rank, so checkpoints are written in
// their order and mergeGrids overlays the ranks' grids into one.
type BlockGrid struct {
	St     *Structure
	ids    []int    // structural ids of the blocks held, ascending
	blocks []*Block // blocks[q] is block ids[q]
}

// newGrids allocates p grids in one pass over the skeleton: block
// (i, j) goes to grid owner(i, j), or to none when that is negative.
// Each grid's blocks and values are carved from one slab apiece.
func newGrids(st *Structure, p int, owner func(i, j int) int) []*BlockGrid {
	ns := st.N
	// each visits every structural block in id order.
	each := func(f func(id, i, j int, rows, cols []int)) {
		for k := 0; k < ns; k++ {
			f(k, k, k, st.supIdx(k), st.supIdx(k))
		}
		for k := 0; k < ns; k++ {
			cols := st.supIdx(k)
			for li, lb := range st.LBlocks[k] {
				f(st.lID(k, li), lb.I, k, lb.Rows, cols)
			}
			for ui, ub := range st.UBlocks[k] {
				f(st.uID(k, ui), k, ub.J, cols, ub.Cols)
			}
		}
	}
	own := make([]int32, st.base[ns])
	nBlk := make([]int, p)
	nVal := make([]int, p)
	each(func(id, i, j int, rows, cols []int) {
		r := owner(i, j)
		own[id] = int32(r)
		if r >= 0 {
			nBlk[r]++
			nVal[r] += len(rows) * len(cols)
		}
	})
	grids := make([]*BlockGrid, p)
	slabs := make([][]Block, p)
	vals := make([][]float64, p)
	for r := range grids {
		grids[r] = &BlockGrid{St: st, ids: make([]int, 0, nBlk[r]), blocks: make([]*Block, 0, nBlk[r])}
		slabs[r] = make([]Block, nBlk[r])
		vals[r] = make([]float64, nVal[r])
	}
	each(func(id, i, j int, rows, cols []int) {
		r := own[id]
		if r < 0 {
			return
		}
		g := grids[r]
		b := &slabs[r][len(g.blocks)]
		n := len(rows) * len(cols)
		*b = Block{Rows: rows, Cols: cols, Val: vals[r][:n:n]}
		vals[r] = vals[r][n:]
		g.ids = append(g.ids, id)
		g.blocks = append(g.blocks, b)
	})
	return grids
}

// block returns the grid's block with structural id id, or nil.
func (g *BlockGrid) block(id int) *Block {
	if q := lookup(g.ids, id); q >= 0 {
		return g.blocks[q]
	}
	return nil
}

// Target returns this grid's block (i, j), or nil when the block is
// structurally absent or held elsewhere.
func (g *BlockGrid) Target(i, j int) *Block {
	if id := g.St.blockID(i, j); id >= 0 {
		return g.block(id)
	}
	return nil
}

// scatter stores every entry of a in the block of grid owner(I, J) that
// holds it, in one pass over a; the blocks must be freshly allocated
// (zero). An entry whose block that grid does not hold is skipped.
func scatter(a *sparse.CSC, grids []*BlockGrid, owner func(i, j int) int) {
	st := grids[0].St
	sup := st.Sym.SupOf
	for j := 0; j < a.Cols; j++ {
		bj := sup[j]
		rows, vals := a.RowInd[a.ColPtr[j]:a.ColPtr[j+1]], a.Val[a.ColPtr[j]:a.ColPtr[j+1]]
		blockOf := func(bi int) *Block {
			id := st.blockID(bi, bj)
			if id < 0 {
				// A's pattern is contained in L+U's, so the block exists.
				panic("dist: A entry outside the static block skeleton")
			}
			return grids[owner(bi, bj)].block(id)
		}
		walkCol(sup, rows, j, blockOf, func(p int, v *float64) {
			if v == nil {
				panic("dist: A entry not in its block")
			}
			*v = vals[p]
		})
	}
}

// walkCol visits column j at the ascending global rows. Each run of rows
// in one supernode bi resolves its block once, with blockOf(bi), and
// walks the block's ascending rows alongside; f(p, v) receives each
// row's position p in rows and its entry v in the block, nil when the
// block has no such row or column. A run whose block is nil is skipped.
func walkCol(sup, rows []int, j int, blockOf func(bi int) *Block, f func(p int, v *float64)) {
	for p := 0; p < len(rows); {
		bi := sup[rows[p]]
		end := p + 1
		for end < len(rows) && sup[rows[end]] == bi {
			end++
		}
		if b := blockOf(bi); b != nil {
			var col []float64
			if c := lookup(b.Cols, j); c >= 0 {
				col = b.Val[c*b.NR() : (c+1)*b.NR()]
			}
			ri := 0
			for ; p < end; p++ {
				for ri < len(b.Rows) && b.Rows[ri] < rows[p] {
					ri++
				}
				if col != nil && ri < len(b.Rows) && b.Rows[ri] == rows[p] {
					f(p, &col[ri])
				} else {
					f(p, nil)
				}
			}
		}
		p = end
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
// dst (zero on entry).
func (g *BlockGrid) gatherCol(dst []float64, rows []int, j int) {
	sup := g.St.Sym.SupOf
	blockOf := func(bi int) *Block { return g.Target(bi, sup[j]) }
	walkCol(sup, rows, j, blockOf, func(p int, v *float64) {
		if v != nil {
			dst[p] = *v
		}
	})
}

// mergeGrids overlays the per-rank grids of one distributed run into a
// grid over the whole structure (sharing the ranks' blocks), so Factors
// can read a distributed factorization.
func mergeGrids(grids []*BlockGrid) *BlockGrid {
	st := grids[0].St
	all := &BlockGrid{St: st, ids: rangeInts(0, st.base[st.N]), blocks: make([]*Block, st.base[st.N])}
	owners := make([]int, len(all.blocks))
	for _, g := range grids {
		for q, id := range g.ids {
			all.blocks[id] = g.blocks[q]
			owners[id]++
		}
	}
	if check.Enabled {
		for id, n := range owners {
			if n != 1 {
				check.Must(fmt.Errorf("dist: structural block %d is owned by %d ranks, want exactly one", id, n))
			}
		}
	}
	return all
}
