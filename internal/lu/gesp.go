// Package lu provides the shared-memory numeric factorization kernels of
// GESP: the static-pivoting left-looking factorization (step (3) of the
// paper's algorithm, including tiny-pivot replacement), serial or on a
// static parallel schedule, a Gilbert–Peierls partial pivoting
// factorization used as the accuracy baseline (the paper's Figure 4
// compares GESP against GEPP as implemented in SuperLU), and the
// triangular solves.
//
// The left-looking factorization is column by column with
// supernode-column updates: one column step (Factors.step), shared by
// Factorize and Schedule.Factorize, applies the columns of L that U(:,j)
// names, and takes those that lie in one exact supernode as a unit —
// the rows below the supernode's diagonal block share one index list, so
// the whole run is applied per gather and scatter of the working column
// (kernels.SpAxpyCols: one AVX2 kernel, with a pure-Go twin on other
// CPUs). Every element still receives its subtractions one rounded
// product at a time in ascending column order, and a zero multiplier is
// still skipped, so the factors carry the bits of the plain
// one-column-at-a-time loop (the test oracle plainLoopFactorize) —
// whichever goroutine runs the step.
// Single columns, supernodes that relaxation merged while merely nested,
// and structures without the exactness marks take the one-column path;
// nothing selects or tunes this but the symbolic.Result.
package lu

import (
	"errors"
	"fmt"
	"math"

	"gesp/internal/kernels"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// Eps is the IEEE double-precision machine epsilon used throughout the
// paper's experiments.
const Eps = 2.220446049250313e-16

// TinyPivotThreshold is step (3)'s replacement threshold, shared by every
// engine: override (an Options.Threshold) when nonzero, otherwise the
// paper's sqrt(eps)·‖A‖₁ from the matrix 1-norm.
func TinyPivotThreshold(norm1, override float64) float64 {
	if override != 0 {
		return override
	}
	return math.Sqrt(Eps) * norm1
}

// ErrZeroPivot is returned when elimination meets an exactly zero pivot
// and tiny-pivot replacement is disabled — the failure mode of plain
// no-pivoting Gaussian elimination on 27 of the paper's 53 matrices.
// Concrete failures are *ZeroPivotError values, which carry the column
// where elimination broke; errors.Is(err, ErrZeroPivot) matches them.
var ErrZeroPivot = errors.New("lu: zero pivot encountered (tiny-pivot replacement disabled)")

// ZeroPivotError reports where static pivoting broke: the column whose
// pivot was exactly zero and the replacement threshold that was in
// force (sqrt(eps)·||A|| unless overridden). The resilience ladder and
// diagnostics use the column to report the failure site; errors.As
// extracts it, errors.Is(err, ErrZeroPivot) still matches.
type ZeroPivotError struct {
	Col       int
	Threshold float64
}

func (e *ZeroPivotError) Error() string {
	return fmt.Sprintf("lu: column %d: zero pivot encountered (tiny-pivot replacement disabled, threshold %.6e)", e.Col, e.Threshold)
}

// Is makes errors.Is(err, ErrZeroPivot) succeed for typed zero-pivot
// failures, preserving the sentinel contract existing callers rely on.
func (e *ZeroPivotError) Is(target error) bool { return target == ErrZeroPivot }

// Options control the static factorization.
type Options struct {
	// ReplaceTinyPivot enables step (3)'s fix: any pivot smaller in
	// magnitude than Threshold is set to ±Threshold.
	ReplaceTinyPivot bool
	// Threshold overrides the replacement threshold; 0 means the paper's
	// sqrt(eps)*||A|| (1-norm).
	Threshold float64
	// Aggressive replaces tiny pivots with the largest magnitude of the
	// current column instead of sqrt(eps)*||A|| (the paper's future-work
	// proposal); the resulting rank-one perturbations are recorded in
	// PivotMods for Sherman–Morrison–Woodbury recovery.
	Aggressive bool
}

// PivotMod records one perturbed pivot: position Col, original value Old,
// stored value New. The factored matrix is A + Σ (New-Old)·e_col·e_colᵀ.
type PivotMod struct {
	Col      int
	Old, New float64
}

// Factors holds a computed LU factorization in the static structure:
// A ≈ L·U with L unit lower triangular (strictly-lower entries stored,
// parallel to sym.LInd) and U upper triangular including the diagonal
// (parallel to sym.UInd).
type Factors struct {
	Sym  *symbolic.Result
	LVal []float64
	UVal []float64
	// TinyPivots counts replaced pivots; PivotMods records them.
	TinyPivots int
	PivotMods  []PivotMod
	// ColAMax[j] is max |A(i,j)| of the input, retained for pivot-growth
	// diagnostics.
	ColAMax []float64
	// RecipGrowth is ReciprocalPivotGrowth() with the same bits, taken
	// in the column steps of Factorize and Schedule.Factorize; factors
	// built any other way leave it zero.
	RecipGrowth float64
}

// Factorize runs the GESP numeric factorization of a (already permuted
// and scaled) using the static structure sym. It fails only on an exactly
// zero pivot with replacement disabled.
func Factorize(a *sparse.CSC, sym *symbolic.Result, opts Options) (*Factors, error) {
	f, wk, err := newFactors(a, sym, opts)
	if err != nil {
		return nil, err
	}
	for j := 0; j < sym.N; j++ {
		if err := f.step(wk, j); err != nil {
			return nil, err
		}
	}
	f.record(wk.mods, wk.rpg)
	return f, nil
}

// record stores the replaced pivots, ascending by column, and the
// smallest column growth ratio (+Inf when no column had one).
func (f *Factors) record(mods []PivotMod, rpg float64) {
	f.PivotMods, f.TinyPivots = mods, len(mods)
	if math.IsInf(rpg, 1) {
		rpg = 1
	}
	f.RecipGrowth = rpg
}

// worker is what one goroutine carries through column steps: the
// matrix, the pivot policy and threshold, its own sparse accumulator, its
// own record of replaced pivots (ascending by column, as it factors
// them) and the smallest growth ratio of its columns. top is set only
// while the worker factors columns of a parallel schedule's top, whose
// runs update may have to wait for.
type worker struct {
	a      *sparse.CSC
	opts   Options
	thresh float64
	w      []float64
	mods   []PivotMod
	rpg    float64
	top    *pipeline
}

// newWorker returns a worker with a zero accumulator of length n and no
// growth ratio yet.
func newWorker(a *sparse.CSC, opts Options, thresh float64, n int) *worker {
	return &worker{a: a, opts: opts, thresh: thresh, w: make([]float64, n), rpg: math.Inf(1)}
}

// newFactors allocates the factor storage for a in the structure sym
// and a worker with its accumulator and the tiny-pivot threshold.
func newFactors(a *sparse.CSC, sym *symbolic.Result, opts Options) (*Factors, *worker, error) {
	n := sym.N
	if a.Rows != n || a.Cols != n {
		return nil, nil, fmt.Errorf("lu: matrix is %dx%d, symbolic structure is for n=%d", a.Rows, a.Cols, n)
	}
	f := &Factors{
		Sym:     sym,
		LVal:    make([]float64, sym.NnzL()),
		UVal:    make([]float64, sym.NnzU()),
		ColAMax: make([]float64, n),
	}
	return f, newWorker(a, opts, TinyPivotThreshold(a.Norm1(), opts.Threshold), n), nil
}

// errAbandoned stops a column step whose wait gave up because a lower
// column failed; the lower column's error is the one reported.
var errAbandoned = errors.New("lu: column abandoned after a lower column failed")

// step is the left-looking column step, the only one in the package:
// scatter A(:,j) into the worker's accumulator w (all zero on entry and
// on a successful return), apply every earlier column of L that U(:,j)
// names, fix the pivot, scale the strictly-lower part into L. While the
// column is hot it takes the column's growth ratio the way
// ReciprocalPivotGrowth does, with the same expressions: the minimum
// over columns is exact and ignores the order the columns come in.
func (f *Factors) step(wk *worker, j int) error {
	sym, w := f.Sym, wk.w
	cmax := scatterColumn(wk.a, j, w)
	f.ColAMax[j] = cmax
	if !f.update(wk, j) {
		return errAbandoned
	}
	piv, err := wk.pick(j, w[j], cmax)
	if err != nil {
		return err
	}
	f.UVal[sym.UPtr[j+1]-1] = piv
	um := 0.0
	for _, u := range f.UVal[sym.UPtr[j]:sym.UPtr[j+1]] {
		if v := math.Abs(u); v > um {
			um = v
		}
	}
	for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
		f.LVal[q] = w[sym.LInd[q]] / piv
		if v := math.Abs(f.LVal[q] * piv); v > um {
			um = v
		}
	}
	if um != 0 {
		if r := cmax / um; r < wk.rpg {
			wk.rpg = r
		}
	}
	clearColumn(sym, j, w)
	return nil
}

// update records U(k,j) = w[k] for the strictly-upper rows k of U(:,j),
// in ascending order (a topological order), and applies each column:
// w -= L(:,k)·U(k,j).
//
// Rows that form a run k..e inside one exact supernode (sym.RunLast) are
// taken as a unit, SuperLU's sup-col update. Inside the run's diagonal
// block the columns go one by one (kernels.SpTriCols), which fixes every
// U(kk,j); below row e the run's columns have one index list — column
// e's — and kernels.SpAxpyCols applies the whole run per row, one
// gather and one scatter of w per row instead of one per multiply-add.
// Every w[i] still sees its subtractions one product at a time in
// ascending column order, and a zero U(kk,j) is still skipped, so the
// factors keep the bits of the column-by-column loop. A run of one
// column (most runs, on 2-D meshes) is that loop's step itself, one
// kernels.SpAxpy without the two run kernels around it.
//
// In a parallel schedule's top the columns of a run may still be in
// another worker's hands: update then applies the run's prefix that is
// factored, waiting for its first column if need be, and takes the rest
// as the next run (pipeline.await); it returns false if the wait gave
// up. How a run is cut never changes what any w[i] receives, or in
// which order, so neither do the bits.
//
//gesp:hotpath
func (f *Factors) update(wk *worker, j int) bool {
	sym, w, top := f.Sym, wk.w, wk.top
	lptr, lind, lval := sym.LPtr, sym.LInd, f.LVal
	diag := sym.UPtr[j+1] - 1
	for p := sym.UPtr[j]; p < diag; {
		k := sym.UInd[p]
		e := sym.RunLast(p, diag, j)
		if top != nil {
			if e = top.await(k, e, j); e < k {
				return false
			}
		}
		if e == k {
			ukj := w[k]
			f.UVal[p] = ukj
			if ukj != 0 {
				kernels.SpAxpy(w, lind[lptr[k]:lptr[k+1]], lval[lptr[k]:lptr[k+1]], ukj)
			}
			p++
			continue
		}
		u := f.UVal[p : p+(e-k)+1]
		// Diagonal block: column kk reaches rows kk+1..e, its first e-kk
		// entries. This fixes every U(kk,j) of the run.
		kernels.SpTriCols(w[k:e+1], lval, lptr[k:e+1], u)
		// Below the block: the rows of L(:,e), whose values are the last
		// entries of every column of the run.
		kernels.SpAxpyCols(w, lind[lptr[e]:lptr[e+1]], lval, lptr[k+1:e+2], u)
		p += len(u)
	}
	return true
}

// pick applies step (3)'s tiny-pivot policy to the pivot of column col,
// recording a replacement in the worker's mods. Only a pivot whose
// magnitude compares below the threshold is tiny: a NaN pivot is kept,
// as the column-by-column loop keeps it.
func (wk *worker) pick(col int, piv, cmax float64) (float64, error) {
	thresh := wk.thresh
	if !(math.Abs(piv) < thresh) {
		return piv, nil
	}
	if !wk.opts.ReplaceTinyPivot {
		if piv == 0 {
			return 0, &ZeroPivotError{Col: col, Threshold: thresh}
		}
		return piv, nil
	}
	repl := thresh
	if wk.opts.Aggressive && cmax > thresh {
		repl = cmax
	}
	newPiv := math.Copysign(repl, piv)
	if piv == 0 {
		newPiv = repl
	}
	wk.mods = append(wk.mods, PivotMod{Col: col, Old: piv, New: newPiv})
	return newPiv, nil
}

// scatterColumn copies A(:,j) into the accumulator and returns its
// largest magnitude, kept for the growth statistics.
func scatterColumn(a *sparse.CSC, j int, w []float64) float64 {
	cmax := 0.0
	for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
		w[a.RowInd[k]] = a.Val[k]
		if v := math.Abs(a.Val[k]); v > cmax {
			cmax = v
		}
	}
	return cmax
}

// clearColumn zeroes the accumulator along the pattern of column j.
func clearColumn(sym *symbolic.Result, j int, w []float64) {
	for _, i := range sym.UColRows(j) {
		w[i] = 0
	}
	for _, i := range sym.LColRows(j) {
		w[i] = 0
	}
}

// SolveL overwrites x with L⁻¹x (forward substitution, implied unit
// diagonal).
//
//gesp:hotpath
func (f *Factors) SolveL(x []float64) {
	sym := f.Sym
	for j := 0; j < sym.N; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		lo, hi := sym.LPtr[j], sym.LPtr[j+1]
		kernels.SpAxpy(x, sym.LInd[lo:hi], f.LVal[lo:hi], xj)
	}
}

// SolveU overwrites x with U⁻¹x (backward substitution).
//
//gesp:hotpath
func (f *Factors) SolveU(x []float64) {
	sym := f.Sym
	for j := sym.N - 1; j >= 0; j-- {
		hi := sym.UPtr[j+1] - 1
		xj := x[j] / f.UVal[hi] // diagonal is the last entry
		x[j] = xj
		if xj == 0 {
			continue
		}
		lo := sym.UPtr[j]
		kernels.SpAxpy(x, sym.UInd[lo:hi], f.UVal[lo:hi], xj)
	}
}

// Solve overwrites x (initially b) with A⁻¹b using the factors.
func (f *Factors) Solve(x []float64) {
	f.SolveL(x)
	f.SolveU(x)
}

// SolveLT overwrites x with L⁻ᵀx, and SolveUT with U⁻ᵀx; both are needed
// by the Hager condition estimator, which solves with Aᵀ.
//
//gesp:hotpath
func (f *Factors) SolveLT(x []float64) {
	sym := f.Sym
	for j := sym.N - 1; j >= 0; j-- {
		lo, hi := sym.LPtr[j], sym.LPtr[j+1]
		x[j] = kernels.SpDotSub(x[j], sym.LInd[lo:hi], f.LVal[lo:hi], x)
	}
}

// SolveUT overwrites x with U⁻ᵀx.
//
//gesp:hotpath
func (f *Factors) SolveUT(x []float64) {
	sym := f.Sym
	for j := 0; j < sym.N; j++ {
		lo, hi := sym.UPtr[j], sym.UPtr[j+1]-1
		s := kernels.SpDotSub(x[j], sym.UInd[lo:hi], f.UVal[lo:hi], x)
		x[j] = s / f.UVal[hi]
	}
}

// SolveT overwrites x with A⁻ᵀx.
func (f *Factors) SolveT(x []float64) {
	f.SolveUT(x)
	f.SolveLT(x)
}

// ReciprocalPivotGrowth returns min_j ( max|A(:,j)| / max|(L+U)(:,j)| ),
// the SuperLU stability diagnostic: values near 1 mean no growth, tiny
// values signal instability. It scans the stored factors; Factorize
// and Schedule.Factorize record the same value in RecipGrowth as they
// go.
func (f *Factors) ReciprocalPivotGrowth() float64 {
	sym := f.Sym
	rpg := math.Inf(1)
	for j := 0; j < sym.N; j++ {
		um := 0.0
		for p := sym.UPtr[j]; p < sym.UPtr[j+1]; p++ {
			if v := math.Abs(f.UVal[p]); v > um {
				um = v
			}
		}
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			if v := math.Abs(f.LVal[q] * f.UVal[sym.UPtr[j+1]-1]); v > um {
				um = v
			}
		}
		if um == 0 {
			continue
		}
		if r := f.ColAMax[j] / um; r < rpg {
			rpg = r
		}
	}
	if math.IsInf(rpg, 1) {
		return 1
	}
	return rpg
}
