package dist

import (
	"fmt"

	"gesp/internal/lu"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// Serial blocked factorization: the same right-looking block schedule as
// the distributed algorithm, executed in-process with no messaging. This
// is the SuperLU-style uniprocessor engine (dense kernels over the
// supernode partition) and the reference both the distributed code and
// the sched worker pool are tested against.

// FactorizeBlocked runs the blocked right-looking GESP factorization
// serially over the static structure, returning the factored blocks and
// the number of replaced tiny pivots. Only blocks present in the static
// fill structure are allocated (the grid holds no storage for absent
// blocks), and one scratch buffer is reused across every Schur update.
// The Aggressive option is not supported by the block kernels (use
// lu.Factorize for SMW workflows).
func FactorizeBlocked(a *sparse.CSC, sym *symbolic.Result, opts lu.Options) (*BlockGrid, int, error) {
	st := BuildStructure(sym)
	g := NewGrid(st, nil)
	g.Scatter(a)
	thresh := lu.TinyPivotThreshold(a.Norm1(), opts.Threshold)
	tiny := 0
	var ws UpdateScratch
	for k := 0; k < st.N; k++ {
		diag := g.Diag[k]
		t, _, ok := diag.FactorDiag(thresh, opts.ReplaceTinyPivot)
		if !ok {
			return nil, tiny, fmt.Errorf("dist: supernode %d: %w", k, lu.ErrZeroPivot)
		}
		tiny += t
		for _, lb := range g.L[k] {
			lb.SolveUFromRight(diag)
		}
		for _, ub := range g.U[k] {
			ub.SolveLFromLeft(diag)
		}
		for li, lb := range st.LBlocks[k] {
			l := g.L[k][li]
			for ui, ub := range st.UBlocks[k] {
				if tgt, _ := g.Target(lb.I, ub.J); tgt != nil {
					tgt.RankBUpdateInto(l, g.U[k][ui], &ws)
				}
			}
		}
	}
	return g, tiny, nil
}
