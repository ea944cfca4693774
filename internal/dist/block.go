package dist

import (
	"math"
	"slices"

	"gesp/internal/kernels"
)

// Block is a dense-within-pattern submatrix: the storage unit of the 2-D
// block-cyclic distribution (the paper's nzval[] array; Rows/Cols play
// the role of index[]).
type Block struct {
	Rows []int     // global row indices, ascending
	Cols []int     // global column indices, ascending
	Val  []float64 // column-major, len(Rows)*len(Cols)
}

// NewBlock allocates a zero block with the given global index sets.
func NewBlock(rows, cols []int) *Block {
	return &Block{Rows: rows, Cols: cols, Val: make([]float64, len(rows)*len(cols))}
}

// NR and NC report the block's dimensions.
func (b *Block) NR() int { return len(b.Rows) }
func (b *Block) NC() int { return len(b.Cols) }

// Bytes reports the modelled message size of the block: values plus the
// two index arrays (the paper sends index[] and nzval[] per block column).
func (b *Block) Bytes() int { return 8*len(b.Val) + 4*(len(b.Rows)+len(b.Cols)) }

// LocalRow maps a global row index to the block-local index; the row must
// be present.
func (b *Block) LocalRow(r int) int {
	i := lookup(b.Rows, r)
	if i < 0 {
		panic("dist: row not in block")
	}
	return i
}

// LocalCol maps a global column index to the block-local index.
func (b *Block) LocalCol(c int) int {
	i := lookup(b.Cols, c)
	if i < 0 {
		panic("dist: column not in block")
	}
	return i
}

// At returns the entry at global coordinates.
func (b *Block) At(r, c int) float64 { return b.Val[b.LocalCol(c)*b.NR()+b.LocalRow(r)] }

// Set stores v at global coordinates.
func (b *Block) Set(r, c int, v float64) { b.Val[b.LocalCol(c)*b.NR()+b.LocalRow(r)] = v }

// FactorDiag factors the diagonal block in place (no pivoting), storing
// the unit-lower triangle of L below the diagonal and U on and above —
// the paper's diagonal blocks hold both triangles. Pivots smaller in
// magnitude than thresh are replaced by ±thresh when replace is true;
// returns the number of replacements and the flop count. A zero pivot
// with replace false reports ok = false.
//
//gesp:hotpath
func (b *Block) FactorDiag(thresh float64, replace bool) (tiny int, flops int64, ok bool) {
	n := b.NR()
	v := b.Val
	for k := 0; k < n; k++ {
		piv := v[k*n+k]
		if math.Abs(piv) < thresh {
			if !replace {
				if piv == 0 {
					return tiny, flops, false
				}
			} else {
				np := math.Copysign(thresh, piv)
				if piv == 0 {
					np = thresh
				}
				v[k*n+k] = np
				piv = np
				tiny++
			}
		}
		for i := k + 1; i < n; i++ {
			v[k*n+i] /= piv
		}
		flops += int64(n - k - 1)
		kernels.Rank1Trailing(v, n, k)
		flops += 2 * int64(n-k-1) * int64(n-k-1)
	}
	return tiny, flops, true
}

// SolveUFromRight overwrites b with b·U⁻¹ where diag holds a factored
// diagonal block (upper triangle = U): this computes an L panel
// L(I,K) = A(I,K)·U(K,K)⁻¹. Returns the flop count.
//
//gesp:hotpath
func (b *Block) SolveUFromRight(diag *Block) int64 {
	nr, nc := b.NR(), b.NC()
	kernels.TrsmUpperRight(b.Val, nr, nc, diag.Val, diag.NR())
	return int64(nr) * int64(nc) * int64(nc)
}

// SolveLFromLeft overwrites b with L⁻¹·b where diag holds a factored
// diagonal block (unit-lower triangle = L): this computes a U panel
// U(K,J) = L(K,K)⁻¹·A(K,J). Returns the flop count.
//
//gesp:hotpath
func (b *Block) SolveLFromLeft(diag *Block) int64 {
	nr, nc := b.NR(), b.NC()
	kernels.TrsmLowerUnitLeft(b.Val, nr, nc, diag.Val, diag.NR())
	return int64(nr) * int64(nr) * int64(nc)
}

// lookup returns the local index of a global id in a sorted slice, or -1.
func lookup(ids []int, v int) int {
	if i, ok := slices.BinarySearch(ids, v); ok {
		return i
	}
	return -1
}

// UpdateScratch holds the reusable work buffers of RankBUpdateInto: the
// dense product accumulator, the packed U panel and the row/column
// index maps. One scratch per worker (or one for the whole serial
// engine) removes every per-call allocation from the Schur-update hot
// path.
type UpdateScratch struct {
	prod   []float64
	upack  []float64
	rowMap []int
	colMap []int
}

// ensure sizes the buffers for an nr×nc product whose packed U operand
// has ku rows.
func (ws *UpdateScratch) ensure(nr, nc, ku int) {
	if cap(ws.prod) < nr*nc {
		ws.prod = make([]float64, nr*nc)
	}
	if cap(ws.upack) < ku*nc {
		ws.upack = make([]float64, ku*nc)
	}
	if cap(ws.rowMap) < nr {
		ws.rowMap = make([]int, nr)
	}
	if cap(ws.colMap) < nc {
		ws.colMap = make([]int, nc)
	}
	ws.prod = ws.prod[:nr*nc]
	ws.upack = ws.upack[:ku*nc]
	ws.rowMap = ws.rowMap[:nr]
	ws.colMap = ws.colMap[:nc]
}

// RankBUpdateInto applies target -= L(I,K)·U(K,J) using ws as scratch.
// Rows of l and columns of u are located in the target through its
// global index sets. With strict T2 supernodes every position exists;
// with relaxed (amalgamated) supernodes a row or column of the operand
// blocks may be absent from the target — those contributions are
// provably zero (the corresponding L or U entries are structural-zero
// padding), so they are skipped. The mapped U columns are packed
// contiguously and the product is one kernels.MatMul call, which
// accumulates each product element over ascending k. Returns the flop
// count, 2·nrL per nonzero entry of a mapped U column — the count the
// distributed simulator's virtual clock is fed.
//
//gesp:hotpath
func (t *Block) RankBUpdateInto(l, u *Block, ws *UpdateScratch) int64 {
	nrL, nrT := l.NR(), t.NR()
	ncU, nrU := u.NC(), u.NR()
	bk := l.NC()             // supernode K width; equals u.NR()
	ws.ensure(nrL, ncU, nrU) //gesp:allocok one-time scratch warm-up; steady state is allocation-free (see blockupdate_test AllocsPerRun)
	rowMap, colMap, prod, upack := ws.rowMap, ws.colMap, ws.prod, ws.upack
	for i, r := range l.Rows {
		rowMap[i] = lookup(t.Rows, r)
	}
	// Pack the mapped U columns contiguously, recording each packed
	// column's target index and counting nonzeros for the flop model.
	nM := 0
	var nz int64
	for c, cGlobal := range u.Cols {
		tc := lookup(t.Cols, cGlobal)
		if tc < 0 {
			continue
		}
		src := u.Val[c*nrU : (c+1)*nrU]
		dst := upack[nM*nrU : (nM+1)*nrU]
		for i, v := range src {
			dst[i] = v
			if v != 0 {
				nz++
			}
		}
		colMap[nM] = tc
		nM++
	}
	if nM == 0 {
		return 0
	}
	kernels.MatMul(prod[:nrL*nM], l.Val, upack[:nrU*nM], nrL, nM, bk)
	// Scatter-subtract the dense product through the index maps.
	for c := 0; c < nM; c++ {
		tcol := t.Val[colMap[c]*nrT : (colMap[c]+1)*nrT]
		pcol := prod[c*nrL : (c+1)*nrL]
		for i := 0; i < nrL; i++ {
			if ti := rowMap[i]; ti >= 0 {
				tcol[ti] -= pcol[i]
			}
		}
	}
	return 2 * int64(nrL) * nz
}

// MatVecAdd accumulates B·x into dst for the solve phase: dst covers
// the global rows from rowBase on, and x is the supernode-local solution
// subvector starting at global column colBase; the block's columns may
// be a proper subset of the supernode (U blocks have skyline structure),
// so each is mapped through its global index. The product is formed in
// *acc, a scratch buffer grown as needed, before it is added.
func (b *Block) MatVecAdd(dst []float64, rowBase int, x []float64, colBase int, acc *[]float64) int64 {
	nr := b.NR()
	if cap(*acc) < nr {
		*acc = make([]float64, nr)
	}
	y := (*acc)[:nr]
	clear(y)
	for ci, c := range b.Cols {
		xc := x[c-colBase]
		if xc == 0 {
			continue
		}
		col := b.Val[ci*nr : (ci+1)*nr]
		for i := 0; i < nr; i++ {
			y[i] += col[i] * xc
		}
	}
	for i, r := range b.Rows {
		if y[i] != 0 {
			dst[r-rowBase] += y[i]
		}
	}
	return 2 * int64(nr) * int64(b.NC())
}

// ForwardSolveDiag solves L(K,K)·x = rhs in place (unit lower triangle of
// the factored diagonal block).
//
//gesp:hotpath
func (b *Block) ForwardSolveDiag(x []float64) int64 {
	n := b.NR()
	v := b.Val
	for k := 0; k < n; k++ {
		xk := x[k]
		if xk == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			x[i] -= v[k*n+i] * xk
		}
	}
	return int64(n) * int64(n)
}

// BackSolveDiag solves U(K,K)·x = rhs in place (upper triangle including
// the diagonal).
//
//gesp:hotpath
func (b *Block) BackSolveDiag(x []float64) int64 {
	n := b.NR()
	v := b.Val
	for k := n - 1; k >= 0; k-- {
		xk := x[k] / v[k*n+k]
		x[k] = xk
		if xk == 0 {
			continue
		}
		for i := 0; i < k; i++ {
			x[i] -= v[k*n+i] * xk
		}
	}
	return int64(n) * int64(n)
}
