// Package dist implements the paper's Section 3: the distributed-memory
// sparse LU factorization and triangular solves of GESP over a 2-D
// nonuniform block-cyclic layout.
//
// The matrix is partitioned by the supernode boundaries found in the
// symbolic analysis (split at the maximum block size — the paper uses
// 24). Block (I, J) lives on process (I mod PRow, J mod PCol) of the
// process grid. Because no pivoting happens, the complete block skeleton
// — which L and U blocks exist, who owns them, and exactly which
// messages will flow — is known statically before numeric work begins.
// Communication is pruned by the supernodal elimination DAGs (EDAGs): a
// panel of L is sent only to process columns owning a supernode J with
// U(K,J) ≠ 0, rather than to the whole process row.
//
// The skeleton is a Structure, built by BuildStructure from the
// symbolic analysis and owned by the caller: every entry point takes
// one and only reads it, so one Structure serves every run on its
// analysis. core.Solver builds it on the analysis's first DistSolve and
// keeps it.
package dist

import "gesp/internal/symbolic"

// Structure is the replicated static skeleton: every rank holds it (the
// paper runs the symbolic analysis redundantly on every processor). It
// is read-only once built, so runs may share it, concurrently too.
type Structure struct {
	Sym *symbolic.Result
	N   int // number of supernodes

	// lBlocks[K] lists the off-diagonal L blocks in panel K, ascending by
	// supernode I, with the global rows of each block.
	LBlocks [][]LBlockInfo
	// uBlocks[K] lists the U blocks in block row K, ascending by supernode
	// J, with the global columns present in each block.
	UBlocks [][]UBlockInfo
	// RowL[I] lists the panels J < I with a nonzero block L(I,J): the
	// dependencies of x(I) in the lower triangular solve.
	RowL [][]int
	// ColU[J] lists the block rows K < J with a nonzero block U(K,J): the
	// destinations of x(J) in the upper triangular solve. colUAt[J][q]
	// is the position of U(ColU[J][q], J) in its block row.
	ColU   [][]int
	colUAt [][]int32
	// ColL[K] and RowU[K] are the block indices of LBlocks[K] and
	// UBlocks[K] as plain lists — the destinations of x(K) in the lower
	// solve and the dependencies of x(K) in the upper one — so a sweep in
	// either direction walks two [][]int.
	ColL [][]int
	RowU [][]int

	// Structural block ids name every block the same way on every rank:
	// the diagonal blocks are 0..N-1, then per supernode K its L panel
	// followed by its U row, from base[K] on; base[N] counts the blocks.
	base []int
	// idx is 0..n-1; a supernode's index range is a view of it.
	idx []int
}

// LBlockInfo describes one nonzero off-diagonal block L(I, K).
type LBlockInfo struct {
	I    int   // block row (supernode index), I > K
	Rows []int // global row indices, sorted ascending
}

// UBlockInfo describes one nonzero block U(K, J).
type UBlockInfo struct {
	J    int   // block column (supernode index), J > K
	Cols []int // global column indices present, sorted ascending
}

// BuildStructure derives the block skeleton from the symbolic result.
//
// Layout: every per-panel slice is a view into one of a handful of
// shared slabs sized by a counting pass, instead of append-as-you-go.
// The skeleton is built once but walked by every engine on every panel,
// so the block lists being a few contiguous extents (rather than
// thousands of individually grown slices scattered across the heap)
// keeps the panel loops' metadata reads sequential.
func BuildStructure(sym *symbolic.Result) *Structure {
	ns := sym.NumSupernodes()
	s := &Structure{Sym: sym, N: ns}
	s.LBlocks = make([][]LBlockInfo, ns)
	s.UBlocks = make([][]UBlockInfo, ns)

	// L panels: blocks are runs of equal SupOf in the leading column's
	// strictly-lower pattern (T2 supernodes share it); rows are the
	// pattern entries outside the supernode. Count, then fill.
	nLBlk, nLRow := 0, 0
	for k := 0; k < ns; k++ {
		supEnd := sym.SupPtr[k+1]
		prev := -1
		for _, r := range sym.LColRows(sym.SupPtr[k]) {
			if r < supEnd {
				continue // inside the dense diagonal block
			}
			if bi := sym.SupOf[r]; bi != prev {
				nLBlk++
				prev = bi
			}
			nLRow++
		}
	}
	lblkSlab := make([]LBlockInfo, nLBlk)
	lrowSlab := make([]int, nLRow)
	bPos, rPos := 0, 0
	for k := 0; k < ns; k++ {
		supEnd := sym.SupPtr[k+1]
		bStart := bPos
		for _, r := range sym.LColRows(sym.SupPtr[k]) {
			if r < supEnd {
				continue
			}
			bi := sym.SupOf[r]
			if bPos == bStart || lblkSlab[bPos-1].I != bi {
				lblkSlab[bPos] = LBlockInfo{I: bi}
				bPos++
			}
			lrowSlab[rPos] = r
			rPos++
			cur := &lblkSlab[bPos-1]
			cur.Rows = lrowSlab[rPos-len(cur.Rows)-1 : rPos : rPos]
		}
		if bPos > bStart {
			s.LBlocks[k] = lblkSlab[bStart:bPos:bPos]
		}
	}

	// U blocks: one ascending pass over all columns j; each U row r
	// contributes column j to block (SupOf[r], SupOf[j]). Because
	// columns of a supernode are consecutive and j ascends, each block
	// row's entries arrive already grouped by J and each block's columns
	// arrive ascending — within a block row the appends for one block
	// finish before the next block starts, so per-row slab regions keep
	// every block's columns contiguous. lastCol[K] stamps the last
	// column recorded for block row K, deduplicating within a column.
	// The first sweep counts blocks and columns per block row; the
	// second fills the carved regions.
	lastCol := make([]int, ns)
	lastBlk := make([]int, ns)
	cntBlk := make([]int, ns)
	cntCol := make([]int, ns)
	for k := range lastCol {
		lastCol[k], lastBlk[k] = -1, -1
	}
	for j := 0; j < sym.N; j++ {
		bj := sym.SupOf[j]
		for _, r := range sym.UColRows(j) {
			bk := sym.SupOf[r]
			if bk == bj || lastCol[bk] == j {
				continue // diagonal block, or already recorded for j
			}
			lastCol[bk] = j
			if lastBlk[bk] != bj {
				lastBlk[bk] = bj
				cntBlk[bk]++
			}
			cntCol[bk]++
		}
	}
	blkBase := prefixSum(cntBlk)
	colBase := prefixSum(cntCol)
	ublkSlab := make([]UBlockInfo, blkBase[ns])
	ucolSlab := make([]int, colBase[ns])
	blkFill := make([]int, ns)
	colFill := make([]int, ns)
	for k := range lastCol {
		lastCol[k], lastBlk[k] = -1, -1
	}
	for j := 0; j < sym.N; j++ {
		bj := sym.SupOf[j]
		for _, r := range sym.UColRows(j) {
			bk := sym.SupOf[r]
			if bk == bj || lastCol[bk] == j {
				continue
			}
			lastCol[bk] = j
			if lastBlk[bk] != bj {
				lastBlk[bk] = bj
				c := colBase[bk] + colFill[bk]
				ublkSlab[blkBase[bk]+blkFill[bk]] = UBlockInfo{J: bj, Cols: ucolSlab[c:c:colBase[bk+1]]}
				blkFill[bk]++
			}
			ucolSlab[colBase[bk]+colFill[bk]] = j
			colFill[bk]++
			cur := &ublkSlab[blkBase[bk]+blkFill[bk]-1]
			cur.Cols = cur.Cols[:len(cur.Cols)+1]
		}
	}
	for k := 0; k < ns; k++ {
		if blkFill[k] > 0 {
			s.UBlocks[k] = ublkSlab[blkBase[k] : blkBase[k]+blkFill[k] : blkBase[k+1]]
		}
	}

	// Index lists for the triangular solves, also counted slabs: the
	// blocks' own indices first, then the reverse indexes.
	s.ColL = make([][]int, ns)
	s.RowU = make([][]int, ns)
	colLSlab := make([]int, 0, nLBlk)
	rowUSlab := make([]int, 0, blkBase[ns])
	for k := 0; k < ns; k++ {
		for _, lb := range s.LBlocks[k] {
			colLSlab = append(colLSlab, lb.I)
		}
		for _, ub := range s.UBlocks[k] {
			rowUSlab = append(rowUSlab, ub.J)
		}
		s.ColL[k] = colLSlab[len(colLSlab)-len(s.LBlocks[k]):]
		s.RowU[k] = rowUSlab[len(rowUSlab)-len(s.UBlocks[k]):]
	}
	s.base = make([]int, ns+1)
	s.base[0] = ns
	for k := 0; k < ns; k++ {
		s.base[k+1] = s.base[k] + len(s.LBlocks[k]) + len(s.UBlocks[k])
	}
	s.idx = rangeInts(0, sym.N)
	s.RowL = make([][]int, ns)
	s.ColU = make([][]int, ns)
	cntRowL := make([]int, ns)
	cntColU := make([]int, ns)
	for j := 0; j < ns; j++ {
		for _, lb := range s.LBlocks[j] {
			cntRowL[lb.I]++
		}
		for _, ub := range s.UBlocks[j] {
			cntColU[ub.J]++
		}
	}
	rowLBase := prefixSum(cntRowL)
	colUBase := prefixSum(cntColU)
	rowLSlab := make([]int, rowLBase[ns])
	colUSlab := make([]int, colUBase[ns])
	colUAtSlab := make([]int32, colUBase[ns])
	fillRowL := make([]int, ns)
	fillColU := make([]int, ns)
	for j := 0; j < ns; j++ {
		for _, lb := range s.LBlocks[j] {
			rowLSlab[rowLBase[lb.I]+fillRowL[lb.I]] = j
			fillRowL[lb.I]++
		}
		for ui, ub := range s.UBlocks[j] {
			colUSlab[colUBase[ub.J]+fillColU[ub.J]] = j
			colUAtSlab[colUBase[ub.J]+fillColU[ub.J]] = int32(ui)
			fillColU[ub.J]++
		}
	}
	s.colUAt = make([][]int32, ns)
	for k := 0; k < ns; k++ {
		if cntRowL[k] > 0 {
			s.RowL[k] = rowLSlab[rowLBase[k]:rowLBase[k+1]:rowLBase[k+1]]
		}
		if cntColU[k] > 0 {
			s.ColU[k] = colUSlab[colUBase[k]:colUBase[k+1]:colUBase[k+1]]
			s.colUAt[k] = colUAtSlab[colUBase[k]:colUBase[k+1]:colUBase[k+1]]
		}
	}
	return s
}

// prefixSum returns the exclusive prefix sums of xs, length len(xs)+1.
func prefixSum(xs []int) []int {
	ps := make([]int, len(xs)+1)
	for i, x := range xs {
		ps[i+1] = ps[i] + x
	}
	return ps
}

// SupWidth returns the number of columns of supernode K.
func (s *Structure) SupWidth(k int) int { return s.Sym.SupPtr[k+1] - s.Sym.SupPtr[k] }

// SupCols returns the half-open global column range of supernode K.
func (s *Structure) SupCols(k int) (int, int) { return s.Sym.SupPtr[k], s.Sym.SupPtr[k+1] }

// supIdx returns supernode K's global indices.
func (s *Structure) supIdx(k int) []int {
	lo, hi := s.SupCols(k)
	return s.idx[lo:hi:hi]
}

// blockID returns the structural id of block (i, j), or -1 when the
// block is structurally absent.
func (s *Structure) blockID(i, j int) int {
	switch {
	case i == j:
		return i
	case i > j:
		if p := lookup(s.ColL[j], i); p >= 0 {
			return s.base[j] + p
		}
	default:
		if p := lookup(s.RowU[i], j); p >= 0 {
			return s.base[i] + len(s.ColL[i]) + p
		}
	}
	return -1
}

// lID and uID are the structural ids of L(ColL[K][li], K) and
// U(K, RowU[K][ui]).
func (s *Structure) lID(k, li int) int { return s.base[k] + li }
func (s *Structure) uID(k, ui int) int { return s.base[k] + len(s.ColL[k]) + ui }

func rangeInts(lo, hi int) []int {
	r := make([]int, hi-lo)
	for i := range r {
		r[i] = lo + i
	}
	return r
}
