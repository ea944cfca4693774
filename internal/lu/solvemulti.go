package lu

import "gesp/internal/kernels"

// Multi-RHS triangular solves. The serving layer batches queued solve
// requests against one factorization into a single sweep: each factor
// column's indices and values are loaded once and applied to every
// right-hand side of a tile (kernels.Lanes of them, interleaved by row),
// instead of re-walking L and U per RHS as repeated Solve calls would.
// Per-RHS arithmetic is identical to SolveL/SolveU (same updates in the
// same order, the per-RHS zero-pivot skip included), so each column of
// the result is bitwise equal to the corresponding single-RHS solve; see
// kernels.SolveTileL.

// SolveMulti overwrites the nrhs right-hand sides packed column-major in
// x (vector r occupies x[r*n : (r+1)*n]) with A⁻¹ applied to each, where
// n = f.Sym.N. Vectors go kernels.Lanes at a time through a tile in work,
// which must hold kernels.Lanes*n values when nrhs > 1; a group of one
// vector is solved in place by Solve's sweeps. It is the batched
// equivalent of calling Solve on every vector and allocates nothing.
//
//gesp:hotpath
func (f *Factors) SolveMulti(x []float64, nrhs int, work []float64) {
	n := f.Sym.N
	for r0 := 0; r0 < nrhs; r0 += kernels.Lanes {
		b := min(nrhs-r0, kernels.Lanes)
		blk := x[r0*n : (r0+b)*n]
		if b == 1 {
			f.Solve(blk)
			continue
		}
		kernels.PackTile(work, blk, n, b)
		f.SolveTile(work)
		kernels.UnpackTile(blk, work, n, b)
	}
}

// SolveTile overwrites every lane of the tile t (kernels.Lanes vectors of
// length f.Sym.N interleaved by row, kernels.PackTile's layout) with A⁻¹
// applied to it, each lane bitwise what Solve gives that vector alone:
// the batched refinement's sweep, on tiles it keeps from one step to the
// next.
//
//gesp:hotpath
func (f *Factors) SolveTile(t []float64) {
	// The index bound the tile sweeps rely on is the symbolic
	// analysis's: every row in LInd and UInd is below n
	// (symbolic.Result.Check, under gespcheck).
	sym := f.Sym
	kernels.SolveTileL(t, sym.N, sym.LPtr, sym.LInd, f.LVal)
	kernels.SolveTileU(t, sym.N, sym.UPtr, sym.UInd, f.UVal)
}
