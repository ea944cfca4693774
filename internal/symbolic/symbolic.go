// Package symbolic performs the static symbolic LU factorization at the
// heart of GESP: because step (3) of the algorithm never pivots, the
// nonzero patterns of L and U, the supernode partition, the elimination
// structures and the entire communication pattern of the distributed
// algorithm can be computed once, before any numeric work.
//
// The fill pattern is computed column by column as the reachable set of
// the column's nonzeros through the directed graph of the already-known L
// columns (Gilbert–Peierls reachability), accelerated with Eisenstat–Liu
// symmetric pruning.
package symbolic

import (
	"fmt"
	"sort"

	"gesp/internal/check"
	"gesp/internal/sparse"
)

// Options tune the symbolic analysis.
type Options struct {
	// MaxSuper caps the number of columns in a supernode. The paper found
	// 20–30 best on the T3E and used 24; 0 means DefaultMaxSuper.
	MaxSuper int
	// Relax allows amalgamating a supernode of up to Relax columns whose
	// patterns are merely nested rather than identical (relaxed supernodes
	// for better block granularity). 0 disables relaxation.
	Relax int
}

// DefaultMaxSuper is the paper's block-size choice.
const DefaultMaxSuper = 24

// Result is the static elimination structure of a matrix.
type Result struct {
	N int
	// LPtr/LInd hold the strictly-lower pattern of each column of L,
	// sorted ascending. L has an implied unit diagonal.
	LPtr, LInd []int
	// UPtr/UInd hold the upper pattern of each column of U including the
	// diagonal, sorted ascending (the diagonal is the last entry).
	UPtr, UInd []int
	// Parent is the column elimination forest: Parent[j] is the first
	// strictly-lower row index of L(:,j), or -1 for a root.
	Parent []int
	// SupPtr gives the supernode partition: supernode s spans columns
	// SupPtr[s] .. SupPtr[s+1]-1. SupOf maps a column to its supernode.
	SupPtr []int
	SupOf  []int
	// SupExact[s] reports that supernode s is an exact (T2) supernode:
	// every column's pattern is the previous one's minus its leading row,
	// so column kk holds rows kk+1..last followed by the last column's
	// rows. Relaxed supernodes (Options.Relax) that are merely nested are
	// not exact. The serial engine fuses column updates only inside exact
	// supernodes (RunLast).
	SupExact []bool
	// Flops counts the multiply-add and divide operations of the numeric
	// factorization that this structure implies.
	Flops int64
	// RunWidth is the multiply-add-weighted width of the supernode runs
	// of a left-looking factorization: each multiply-add L(i,k)·U(k,j)
	// counts with the number of U(:,j) rows that share k's run (RunLast).
	// RunShare splits the multiply-adds by that width: runs of one
	// column, of 2–3, of 4 or more. This, not the unweighted
	// AvgSupernode, says how much of the work is in kernel-shaped pieces.
	RunWidth float64
	RunShare [3]float64
}

// NnzL reports the number of stored strictly-lower entries of L.
func (r *Result) NnzL() int { return r.LPtr[r.N] }

// NnzU reports the number of stored entries of U including the diagonal.
func (r *Result) NnzU() int { return r.UPtr[r.N] }

// FillLU reports nnz(L+U) counting the unit diagonal of L once, the
// quantity plotted in the paper's Figure 2.
func (r *Result) FillLU() int { return r.NnzL() + r.NnzU() }

// NumSupernodes reports the number of supernodes in the partition.
func (r *Result) NumSupernodes() int { return len(r.SupPtr) - 1 }

// AvgSupernode reports the average supernode width in columns (TWOTONE's
// pathology in the paper is an average of 2.4).
func (r *Result) AvgSupernode() float64 {
	if r.NumSupernodes() == 0 {
		return 0
	}
	return float64(r.N) / float64(r.NumSupernodes())
}

// Factorize computes the static fill pattern of the (already permuted and
// scaled) matrix a, assuming the diagonal pivot order. The diagonal is
// treated as structurally nonzero even when absent from a, matching GESP's
// tiny-pivot replacement which guarantees a usable pivot.
func Factorize(a *sparse.CSC, opts Options) (*Result, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("symbolic: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	if check.Enabled {
		check.Must(a.Check())
	}
	maxSuper := opts.MaxSuper
	if maxSuper <= 0 {
		maxSuper = DefaultMaxSuper
	}

	res := &Result{
		N:      n,
		LPtr:   make([]int, n+1),
		UPtr:   make([]int, n+1),
		Parent: make([]int, n),
	}
	// The fill patterns grow monotonically to several times nnz(A);
	// seeding the slabs at 2×nnz skips the worst of the early doubling
	// copies (growslice was visible in the analysis profile).
	if nnz := len(a.RowInd); nnz > 0 {
		res.LInd = make([]int, 0, 2*nnz)
		res.UInd = make([]int, 0, 2*nnz+n)
	}
	// prunedLen[k]: prefix of L(:,k) that reachability must traverse; the
	// suffix is provably reachable through earlier rows (symmetric pruning).
	prunedLen := make([]int, n)
	pruned := make([]bool, n)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	stack := make([]int, 0, 64)
	frame := make([]int, 0, 64) // adjacency cursor per stack level
	lset := make([]int, 0, 64)
	uset := make([]int, 0, 64)

	for j := 0; j < n; j++ {
		lset, uset = lset[:0], uset[:0]
		mark[j] = j // the diagonal is always structural
		// DFS from every nonzero of A(:,j).
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			root := a.RowInd[k]
			if mark[root] == j {
				continue
			}
			mark[root] = j
			if root >= j {
				lset = append(lset, root)
				continue
			}
			uset = append(uset, root)
			// Iterative DFS through columns < j.
			stack = append(stack[:0], root)
			frame = append(frame[:0], res.LPtr[root])
			for len(stack) > 0 {
				top := len(stack) - 1
				col := stack[top]
				cur := frame[top]
				end := res.LPtr[col] + prunedLen[col]
				advanced := false
				for ; cur < end; cur++ {
					i := res.LInd[cur]
					if mark[i] == j {
						continue
					}
					mark[i] = j
					if i >= j {
						lset = append(lset, i)
						continue
					}
					uset = append(uset, i)
					frame[top] = cur + 1
					stack = append(stack, i)
					frame = append(frame, res.LPtr[i])
					advanced = true
					break
				}
				if !advanced {
					stack = stack[:top]
					frame = frame[:top]
				}
			}
		}
		sort.Ints(lset)
		sort.Ints(uset)
		// Store column j: strictly-lower rows of L exclude the diagonal.
		for _, i := range lset {
			if i > j {
				res.LInd = append(res.LInd, i)
			}
		}
		res.LPtr[j+1] = len(res.LInd)
		res.UInd = append(res.UInd, uset...)
		res.UInd = append(res.UInd, j) // diagonal pivot lives in U
		res.UPtr[j+1] = len(res.UInd)
		prunedLen[j] = res.LPtr[j+1] - res.LPtr[j]

		if res.LPtr[j+1] > res.LPtr[j] {
			res.Parent[j] = res.LInd[res.LPtr[j]]
		} else {
			res.Parent[j] = -1
		}

		// Symmetric pruning: for each k with U(k,j) != 0, if L(j,k) != 0
		// then paths through rows of L(:,k) beyond j are covered via j.
		for _, k := range uset {
			if pruned[k] {
				continue
			}
			lo, hi := res.LPtr[k], res.LPtr[k]+prunedLen[k]
			seg := res.LInd[lo:hi]
			idx := sort.SearchInts(seg, j)
			if idx < len(seg) && seg[idx] == j {
				prunedLen[k] = idx + 1
				pruned[k] = true
			}
		}
	}

	res.buildSupernodes(maxSuper, opts.Relax)
	res.countFlops()
	if check.Enabled {
		check.Must(res.Check())
	}
	return res, nil
}

// buildSupernodes detects T2 supernodes (identical strictly-lower
// structure after dropping the leading row) and splits runs longer than
// maxSuper so block granularity stays suitable for parallel distribution.
func (r *Result) buildSupernodes(maxSuper, relax int) {
	n := r.N
	r.SupOf = make([]int, n)
	r.SupPtr = r.SupPtr[:0]
	if n == 0 {
		r.SupPtr = append(r.SupPtr, 0)
		return
	}
	r.SupPtr = append(r.SupPtr, 0)
	start := 0
	for j := 1; j < n; j++ {
		if j-start >= maxSuper || !r.sameSupernode(j-1, j, relax) {
			r.SupPtr = append(r.SupPtr, j)
			start = j
		}
	}
	r.SupPtr = append(r.SupPtr, n)
	// sameSupernode established that consecutive columns are nested with
	// a dense diagonal block, so they are identical below it exactly when
	// each column is one row shorter than the one before.
	r.SupExact = make([]bool, len(r.SupPtr)-1)
	for s := range r.SupExact {
		exact := true
		for j := r.SupPtr[s]; j < r.SupPtr[s+1]; j++ {
			r.SupOf[j] = s
			if j > r.SupPtr[s] && r.LPtr[j+1]-r.LPtr[j] != r.LPtr[j]-r.LPtr[j-1]-1 {
				exact = false
			}
		}
		r.SupExact[s] = exact
	}
}

// RunLast returns the last row e of the supernode run of U(:,j) that
// starts at position p of UInd (row k = UInd[p] < limit; diag is the
// position of U(:,j)'s diagonal): the rows k..e of k's supernode below
// limit, all present in U(:,j) and contiguous in UInd because the static
// fill is closed (U(k,j) ≠ 0 and the dense diagonal block L(k+1..e,k)
// fill U(k+1..e,j)). The run's columns of L then share one index list
// below row e — column e's — and column kk's values for it are the last
// LPtr[e+1]−LPtr[e] entries of that column. A supernode that is not
// exact, or a pattern that does not show the run, gives e = k.
//
//gesp:hotpath
func (r *Result) RunLast(p, diag, limit int) int {
	k := r.UInd[p]
	if p+1 >= diag || r.UInd[p+1] != k+1 {
		return k // no second row: decided without touching the partition
	}
	s := r.SupOf[k]
	if s >= len(r.SupExact) || !r.SupExact[s] {
		return k
	}
	e := r.SupPtr[s+1] - 1
	if e >= limit {
		e = limit - 1
	}
	if q := p + (e - k); q >= diag || r.UInd[q] != e {
		return k
	}
	return e
}

// sameSupernode reports whether column j extends the supernode ending at
// column j-1: L(:,j) must equal L(:,j-1) minus row j (dense diagonal
// block, identical structure below). With relaxation, up to relax rows of
// slack are tolerated provided L(:,j) ⊆ L(:,j-1)\{j}.
func (r *Result) sameSupernode(jm1, j, relax int) bool {
	lo1, hi1 := r.LPtr[jm1], r.LPtr[jm1+1]
	lo2, hi2 := r.LPtr[j], r.LPtr[j+1]
	// Row j must head the previous column (dense diagonal block).
	if hi1 == lo1 || r.LInd[lo1] != j {
		return false
	}
	n1 := hi1 - lo1 - 1 // previous column minus its leading row j
	n2 := hi2 - lo2
	if n2 > n1 || n1-n2 > relax {
		return false
	}
	if n1 == n2 {
		for k := 0; k < n2; k++ {
			if r.LInd[lo2+k] != r.LInd[lo1+1+k] {
				return false
			}
		}
		return true
	}
	// Relaxed: subset check over sorted slices.
	p := lo1 + 1
	for k := lo2; k < hi2; k++ {
		for p < hi1 && r.LInd[p] < r.LInd[k] {
			p++
		}
		if p == hi1 || r.LInd[p] != r.LInd[k] {
			return false
		}
		p++
	}
	return true
}

// countFlops tallies the floating-point operations of the numeric
// factorization — one division per strictly-lower entry and a
// multiply-add pair per (L(i,k), U(k,j)) product — walking U(:,j) run by
// run as the left-looking engine does, which also yields the run-width
// statistics.
func (r *Result) countFlops() {
	var divs, madds, weighted int64
	var byWidth [3]int64 // multiply-adds in runs of 1, 2–3, ≥ 4 columns
	for j := 0; j < r.N; j++ {
		divs += int64(r.LPtr[j+1] - r.LPtr[j])
		diag := r.UPtr[j+1] - 1
		for p := r.UPtr[j]; p < diag; {
			k := r.UInd[p]
			e := r.RunLast(p, diag, j)
			m := int64(r.LPtr[e+1] - r.LPtr[k]) // all of L(:,k..e)
			width := e - k + 1
			madds += m
			weighted += m * int64(width)
			switch {
			case width >= 4:
				byWidth[2] += m
			case width >= 2:
				byWidth[1] += m
			default:
				byWidth[0] += m
			}
			p += width
		}
	}
	r.Flops = divs + 2*madds
	if madds > 0 {
		r.RunWidth = float64(weighted) / float64(madds)
		for b, m := range byWidth {
			r.RunShare[b] = float64(m) / float64(madds)
		}
	}
}

// EtreeAPlusAT returns the elimination tree of the pattern of A+Aᵀ
// (parent[j] > j, or -1 for a root) by Liu's algorithm with path
// compression, in O(nnz(A)) time and without forming A+Aᵀ. Static
// pivoting never interchanges rows, so struct(L+U) ⊆ struct(chol(A+Aᵀ)):
// every row k of U(:,j) is a descendant of j in this tree, which makes
// it a dependency tree of the left-looking factorization — a column
// reads only columns of its own subtree. (Parent, the first row of each
// L column, is not one: U(:,j) may name columns outside j's subtree in
// it.)
func EtreeAPlusAT(a *sparse.CSC) []int {
	n := a.Cols
	// Column k of Aᵀ is row k of A: the edges (i, k), i < k, that column
	// k of A does not list.
	halves := [2]*sparse.CSC{a, a.Transpose()}
	parent, ancestor := make([]int, n), make([]int, n)
	for k := 0; k < n; k++ {
		parent[k], ancestor[k] = -1, -1
		for _, m := range halves {
			for _, i := range m.RowInd[m.ColPtr[k]:m.ColPtr[k+1]] {
				// Climb from i to the root of its current tree, pointing
				// every node passed at k; that root becomes k's child.
				for i < k {
					next := ancestor[i]
					ancestor[i] = k
					if next == -1 {
						parent[i] = k
						break
					}
					i = next
				}
			}
		}
	}
	return parent
}

// LColRows returns the strictly-lower row pattern of L(:,j).
func (r *Result) LColRows(j int) []int { return r.LInd[r.LPtr[j]:r.LPtr[j+1]] }

// UColRows returns the row pattern of U(:,j) including the diagonal.
func (r *Result) UColRows(j int) []int { return r.UInd[r.UPtr[j]:r.UPtr[j+1]] }
