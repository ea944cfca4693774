// Package core implements the GESP driver — the paper's Figure 1
// algorithm end to end:
//
//	(1) row/column equilibration and a row permutation moving large
//	    entries onto the diagonal (weighted bipartite matching),
//	(2) a fill-reducing column ordering applied symmetrically so the
//	    large diagonal survives,
//	(3) LU factorization with NO pivoting, replacing tiny pivots by
//	    sqrt(eps)·||A||,
//	(4) iterative refinement driven by the componentwise backward error.
//
// The solver exposes every step as an option (the paper: "we provide a
// flexible interface so the user is able to turn on or off any of these
// options", needed because e.g. FIDAPM11 prefers no column scaling and
// EX11 prefers no tiny-pivot replacement).
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"gesp/internal/check"
	"gesp/internal/dist"
	"gesp/internal/equil"
	"gesp/internal/kernels"
	"gesp/internal/lu"
	"gesp/internal/matching"
	"gesp/internal/ordering"
	"gesp/internal/refine"
	"gesp/internal/resilience"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// Options select which GESP steps run and how.
type Options struct {
	// Equilibrate applies DGEEQU-style row/column scaling (step 1).
	Equilibrate bool
	// RowPermute applies the MC64-style large-diagonal permutation and its
	// dual scalings (step 1).
	RowPermute bool
	// ColScale controls whether the matching's column scaling is applied;
	// the paper found FIDAPM11, JPWH_991 and ORSIRR_1 need it off.
	ColScale bool
	// Ordering is the fill-reducing heuristic of step (2).
	Ordering ordering.Method
	// ReplaceTinyPivot enables step (3)'s perturbation; EX11 and RADFR1
	// need it off per the paper.
	ReplaceTinyPivot bool
	// AggressivePivot replaces tiny pivots by the column max and recovers
	// the original system by Sherman–Morrison–Woodbury (future work §5).
	AggressivePivot bool
	// Refine enables step (4); MaxRefine bounds its iterations (0 = 10).
	Refine    bool
	MaxRefine int
	// ExtraPrecision computes refinement residuals in compensated
	// arithmetic (future work §5).
	ExtraPrecision bool
	// MaxSuper caps supernode width (the paper uses 24).
	MaxSuper int
	// Relax amalgamates supernodes whose patterns are nested within the
	// given slack (the paper's §5: "uniprocessor performance can also be
	// improved by amalgamating small supernodes into large ones").
	Relax int
	// Workers sets the shared-memory parallelism: 0 (or 1) runs the
	// left-looking factorization serially; >1 runs the same column steps
	// on that many goroutines along a static schedule built once per
	// analysis (lu.Schedule: independent subtrees of the A+Aᵀ
	// elimination tree, then a shared pipeline over the columns above
	// them), and SolveBatch cuts a batch into up to that many contiguous
	// blocks of right-hand sides, each swept and refined on its own
	// goroutine. Every column is computed by the same operations in the
	// same order whatever the value, so the factors, the replaced
	// pivots and their PivotMods (AggressivePivot's SMW recovery
	// included), and every solution are bit for bit those of Workers=0.
	Workers int
	// Resilience, when non-nil, routes every Solve, SolveBatch and
	// DistSolve through the escalation ladder of internal/resilience.
	// Rung 0 is plain GESP refinement, blocked like the sweep: one
	// refine.Workspace tile loop per block of right-hand sides. A vector
	// it leaves above the ladder's tolerance then climbs alone, as the
	// backward error dictates, through extra-precision refinement, SMW
	// recovery, LU-preconditioned GMRES and finally a partial-pivoting
	// refactorization. It supersedes the Refine/MaxRefine/ExtraPrecision
	// toggles for those calls. The pointed-to Policy is read once at
	// factorization time.
	Resilience *resilience.Policy
}

// DefaultOptions returns the paper's recommended configuration, with one
// deviation: the fill-reducing ordering runs on A+Aᵀ, where the paper's
// §2 uses AᵀA "for now" and names A+Aᵀ as the alternative.
//
// A+Aᵀ is the graph GESP eliminates. Step (1) fixes the pivots on the
// diagonal and step (2) applies Pc to rows and columns alike, so no row
// interchange happens after the ordering, and the factors of A with
// diagonal pivots are contained in those of anything whose pattern
// contains A's: struct(L+U) ⊆ struct(chol(A+Aᵀ)). The fill the ordering
// minimises on A+Aᵀ is therefore a bound on the fill GESP incurs. AᵀA
// bounds the fill under arbitrary row interchanges — a guarantee partial
// pivoting needs and static pivoting pays for without using: 33–50 % more
// nnz(L+U) and 2–3× the flops on the testbed (EXPERIMENTS.md §2.1).
// ordering.MinDegATA remains selectable for that ablation.
func DefaultOptions() Options {
	return Options{
		Equilibrate:      true,
		RowPermute:       true,
		ColScale:         true,
		Ordering:         ordering.MinDegAPlusAT,
		ReplaceTinyPivot: true,
		Refine:           true,
	}
}

// StepTimes records wall-clock time per GESP phase (the paper's Figure 6
// compares these against the factorization time). An analysis phase's
// clock runs for the call that finds its scaling, matching or ordering,
// not for applying the result to the working copy: with the ordering at a
// few milliseconds the two are the same size, and only the first can be
// checked against a timing taken around the same call from outside.
type StepTimes struct {
	Equil    time.Duration
	RowPerm  time.Duration // "permute large diagonal"
	Order    time.Duration
	Symbolic time.Duration
	Factor   time.Duration
	Solve    time.Duration // initial triangular solve of the last Solve call; a batch block of ≥ 2 vectors counts it in Refine
	Residual time.Duration // residual computations during refinement
	Refine   time.Duration // whole refinement loop
	Ferr     time.Duration // forward-error estimation, if requested
}

// Stats describes a completed analysis/factorization.
type Stats struct {
	N           int
	NnzA        int
	NnzLU       int // nnz(L+U), Figure 2's fill metric
	Flops       int64
	TinyPivots  int
	ZeroDiagsIn int     // zero diagonals before any permutation
	DiagLogProd float64 // matching objective: sum log10 |diag|
	NumSuper    int
	AvgSuper    float64
	// RunWidth is symbolic.Result.RunWidth: the supernode width weighted
	// by the multiply-adds that run through it — the width the serial
	// engine's fused column update works at, where AvgSuper counts the
	// many single columns that carry almost no work.
	RunWidth    float64
	RecipGrowth float64
	Times       StepTimes
	// The last solve's refinement outcome (unrefined: its measured berr,
	// 0 steps). After SolveBatch these describe the batch by its worst
	// vector: the largest Berr (NaN counting as largest) with that
	// vector's BerrHistory, the largest RefineSteps, and Converged only
	// if every vector converged.
	RefineSteps int
	Berr        float64
	BerrHistory []float64
	Converged   bool

	// CondEst is the last condition estimate computed by Solver.CondEst;
	// CondEstConverged records whether Hager's iteration reached its
	// fixed point (false means the estimate is a weaker lower bound).
	CondEst          float64
	CondEstConverged bool

	// Resilience counters (zero unless Options.Resilience is set):
	// Escalations counts solves that climbed above rung 0, LastRung is
	// the rung the most recent solve ended on (the highest of a batch),
	// FallbackTime accumulates the wall-clock spent above rung 0.
	Escalations  int
	LastRung     resilience.Rung
	FallbackTime time.Duration

	// Phase-run counters: how many times each analysis phase actually
	// executed while building this Solver. A Solver built by
	// NewWithSymbolic reports zeros for all but FactorRuns — the proof
	// that the pattern-reuse path performs no equilibration, matching,
	// ordering or symbolic work of its own.
	EquilRuns    int
	RowPermRuns  int
	OrderRuns    int
	SymbolicRuns int
	FactorRuns   int
}

// Solver is a factored GESP system ready to solve right-hand sides.
type Solver struct {
	opts Options
	n    int

	rowMap []int     // original row -> row of the factored matrix
	colMap []int     // original col -> col of the factored matrix
	dR, dC []float64 // combined row/column scalings (nil = identity)

	// ap is the matrix actually factored: Pc·Pr·DR·A·DC·Pcᵀ. A Solver
	// from NewWithSymbolic owns only ap.Val; the pattern is the donor's.
	ap    *sparse.CSC
	in    *inputMap // shared read-only with NewWithSymbolic
	sym   *symbolic.Result
	sched *lu.Schedule  // Workers > 1 only; shared read-only with NewWithSymbolic
	skel  *distSkeleton // shared with NewWithSymbolic, like sym
	fac   *lu.Factors
	sys   refine.System

	// ladder is the escalation engine (nil unless Options.Resilience);
	// it owns scratch, so Solve/SolveBatch with a ladder are not safe
	// for concurrent use — same contract as the stats fields.
	ladder *resilience.Ladder

	stats Stats
}

// distSkeleton is the analysis's block skeleton for the distributed
// engine, built on the first DistSolve of any Solver sharing the
// analysis and read by every later one.
type distSkeleton struct {
	once sync.Once
	st   *dist.Structure
}

func (d *distSkeleton) structure(sym *symbolic.Result) *dist.Structure {
	d.once.Do(func() { d.st = dist.BuildStructure(sym) })
	return d.st
}

// inputMap is what an analysis keeps of the matrix A it was built from,
// so that a matrix with A's pattern becomes new values of ap in one pass:
// A's pattern (the analysis's own copy of ColPtr and RowInd), how many
// columns store no diagonal entry, and dst — entry k of A is entry dst[k]
// of ap.
type inputMap struct {
	colPtr, rowInd []int
	dst            []int32
	missingDiags   int
}

// values returns ap's values for a matrix with the map's pattern — entry
// dst[k] is a.Val[k] scaled exactly as ScaleRowsCols(dR, dC) scales it —
// and the count of a's zero diagonals (Stats.ZeroDiagsIn), in one pass
// over a that also checks its pattern entry for entry.
func (m *inputMap) values(a *sparse.CSC, dR, dC []float64) (val []float64, zeroDiags int, err error) {
	nnz := len(m.rowInd)
	if !slices.Equal(a.ColPtr, m.colPtr) || len(a.RowInd) < nnz || len(a.Val) < nnz {
		return nil, 0, errors.New("column pointers or entry count differ from the donor's")
	}
	rowInd, aval := a.RowInd[:nnz], a.Val[:nnz]
	val = make([]float64, nnz)
	zeroDiags = m.missingDiags
	for j := 0; j+1 < len(m.colPtr); j++ {
		cj := dC[j]
		for k := m.colPtr[j]; k < m.colPtr[j+1]; k++ {
			i, v := rowInd[k], aval[k]
			if i != m.rowInd[k] {
				return nil, 0, fmt.Errorf("row indices of column %d differ from the donor's", j)
			}
			val[m.dst[k]] = v * (dR[i] * cj)
			if i == j && v == 0 {
				zeroDiags++
			}
		}
	}
	return val, zeroDiags, nil
}

// check validates the map against the matrix it maps into: entry (i, j)
// of A lands in column colMap[j] of ap at row rowMap[i]. A position of ap
// holds one (row, column), so that makes dst one-to-one, and with equal
// entry counts a bijection from A's entries onto ap's.
func (m *inputMap) check(ap *sparse.CSC, rowMap, colMap []int) error {
	nnz := len(m.rowInd)
	if len(m.dst) != nnz || ap.Nnz() != nnz {
		return fmt.Errorf("core: value map has %d entries for %d in A and %d in the factored matrix", len(m.dst), nnz, ap.Nnz())
	}
	for j := 0; j+1 < len(m.colPtr); j++ {
		lo, hi := ap.ColPtr[colMap[j]], ap.ColPtr[colMap[j]+1]
		for k := m.colPtr[j]; k < m.colPtr[j+1]; k++ {
			i, p := m.rowInd[k], int(m.dst[k])
			if p < lo || p >= hi || ap.RowInd[p] != rowMap[i] {
				return fmt.Errorf("core: value map sends entry (%d,%d) to position %d, not to (%d,%d) of the factored matrix", i, j, p, rowMap[i], colMap[j])
			}
		}
	}
	return nil
}

// missingDiagonals counts the columns of a that store no diagonal entry.
func missingDiagonals(a *sparse.CSC) int {
	missing := 0
	for j := 0; j < a.Cols; j++ {
		if _, ok := slices.BinarySearch(a.RowInd[a.ColPtr[j]:a.ColPtr[j+1]], j); !ok {
			missing++
		}
	}
	return missing
}

// New runs GESP steps (1)–(3) on a: preprocessing, symbolic analysis and
// numeric factorization. The returned Solver is ready for Solve calls.
func New(a *sparse.CSC, opts Options) (*Solver, error) {
	return build(a, opts, true)
}

// NewAnalysis runs only the preprocessing and symbolic analysis (steps
// (1), (2) and the static structure), leaving the numeric factorization
// to a distributed run via DistSolve. This mirrors the paper's setup:
// "the symbolic analysis is not yet parallel, so we run steps (1) and (2)
// independently on each processor" before the parallel numeric phases.
func NewAnalysis(a *sparse.CSC, opts Options) (*Solver, error) {
	return build(a, opts, false)
}

func build(a *sparse.CSC, opts Options, numeric bool) (*Solver, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("core: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	nnz := a.Nnz()
	if nnz > math.MaxInt32 {
		return nil, fmt.Errorf("core: matrix has %d entries, more than the %d a value map addresses", nnz, math.MaxInt32)
	}
	s := &Solver{opts: opts, n: n}
	s.stats.N = n
	s.stats.NnzA = nnz
	s.stats.ZeroDiagsIn = a.ZeroDiagonals()

	// work is scaled in place through step (1); its pattern stays A's and
	// is what NewWithSymbolic compares against.
	work := a.Clone()
	s.in = &inputMap{colPtr: work.ColPtr, rowInd: work.RowInd[:nnz], missingDiags: missingDiagonals(work)}
	s.dR = make([]float64, n)
	s.dC = make([]float64, n)
	for i := 0; i < n; i++ {
		s.dR[i] = 1
		s.dC[i] = 1
	}

	// Step (1a): equilibration.
	if opts.Equilibrate {
		s.stats.EquilRuns++
		t0 := time.Now()
		eq, err := equil.Equilibrate(work)
		s.stats.Times.Equil = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("core: equilibration: %w", err)
		}
		if eq.NeedsScaling() {
			eq.Apply(work)
			for i := 0; i < n; i++ {
				s.dR[i] *= eq.R[i]
				s.dC[i] *= eq.C[i]
			}
		}
	}

	// Step (1b): permute large entries to the diagonal. The ordering reads
	// the row-permuted matrix.
	s.rowMap = sparse.IdentityPerm(n)
	ordered := work
	if opts.RowPermute {
		s.stats.RowPermRuns++
		t0 := time.Now()
		mc, err := matching.MaxProductMatching(work)
		s.stats.Times.RowPerm = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("core: large-diagonal permutation: %w", err)
		}
		dc := mc.Dc
		if !opts.ColScale {
			dc = nil
		}
		work.ScaleRowsCols(mc.Dr, dc)
		for i := 0; i < n; i++ {
			s.dR[i] *= mc.Dr[i]
			if dc != nil {
				s.dC[i] *= mc.Dc[i]
			}
		}
		ordered = work.PermuteRows(mc.RowPerm)
		s.rowMap = mc.RowPerm
		s.stats.DiagLogProd = mc.LogProd
	}

	// Step (2): fill-reducing ordering, applied to rows AND columns so the
	// large diagonal stays on the diagonal. The scaled matrix goes to
	// Pc·Pr·DR·A·DC·Pcᵀ in one permutation, which also yields the value
	// map.
	s.stats.OrderRuns++
	t0 := time.Now()
	pc := ordering.Order(ordered, opts.Ordering)
	s.stats.Times.Order = time.Since(t0)
	s.colMap = pc
	s.rowMap = sparse.ComposePerm(pc, s.rowMap)
	work, s.in.dst = work.PermuteMap(s.rowMap, s.colMap)
	if check.Enabled {
		check.Must(s.in.check(work, s.rowMap, s.colMap))
	}

	// Symbolic analysis (static: possible precisely because there is no
	// dynamic pivoting).
	s.stats.SymbolicRuns++
	t0 = time.Now()
	sym, err := symbolic.Factorize(work, symbolic.Options{MaxSuper: opts.MaxSuper, Relax: opts.Relax})
	if err != nil {
		return nil, fmt.Errorf("core: symbolic: %w", err)
	}
	s.stats.Times.Symbolic = time.Since(t0)
	s.stats.NnzLU = sym.FillLU()
	s.stats.Flops = sym.Flops
	s.stats.NumSuper = sym.NumSupernodes()
	s.stats.AvgSuper = sym.AvgSupernode()
	s.stats.RunWidth = sym.RunWidth

	s.ap, s.sym, s.skel = work, sym, &distSkeleton{}
	if opts.Workers > 1 {
		s.sched = lu.NewSchedule(work, sym, opts.Workers)
	}
	if !numeric {
		return s, nil
	}
	if err := s.factorNumeric(); err != nil {
		return nil, err
	}
	return s, nil
}

// factorNumeric runs step (3) — the numeric factorization with static
// pivoting — on s.ap using the static structure s.sym, and wires up the
// triangular-solve system (the factors, or their SMW recovery) the same
// way for the fresh-analysis and symbolic-reuse paths. With Workers > 1
// the analysis's schedule runs the column steps in parallel, to the
// same bits.
func (s *Solver) factorNumeric() error {
	opts := s.opts
	s.stats.FactorRuns++
	t0 := time.Now()
	luOpts := lu.Options{
		ReplaceTinyPivot: opts.ReplaceTinyPivot,
		Aggressive:       opts.AggressivePivot,
	}
	var fac *lu.Factors
	var err error
	if s.sched != nil {
		fac, err = s.sched.Factorize(s.ap, luOpts)
	} else {
		fac, err = lu.Factorize(s.ap, s.sym, luOpts)
	}
	if err != nil {
		return fmt.Errorf("core: factorization: %w", err)
	}
	s.stats.Times.Factor = time.Since(t0)
	s.stats.TinyPivots = fac.TinyPivots
	s.stats.RecipGrowth = fac.RecipGrowth

	s.fac = fac
	s.sys = fac
	if opts.AggressivePivot && fac.TinyPivots > 0 {
		smw, err := refine.NewSMWSolver(fac)
		if err != nil {
			return fmt.Errorf("core: SMW recovery: %w", err)
		}
		s.sys = smw
	}
	if opts.Resilience != nil {
		s.ladder = resilience.NewLadder(s.ap, s.fac, s.sys, *opts.Resilience)
	}
	return nil
}

// NewWithSymbolic builds a Solver for a matrix whose sparsity pattern is
// identical to the one donor was built from, reusing the donor's entire
// analysis — scalings, row permutation, fill-reducing ordering and
// symbolic structure — and running only the numeric factorization. This
// is the serving-layer fast path that static pivoting makes possible:
// the elimination structure depends only on the pattern, so a
// pattern-identical matrix needs no MC64, no ordering and no symbolic
// work (the donor's permutation and scalings are value-based and may be
// mildly stale for the new values; tiny-pivot replacement plus iterative
// refinement absorb that, the same trade SuperLU_DIST makes for its
// SamePattern_SameRowPerm option).
//
// The donor may have been built by New, NewAnalysis or NewWithSymbolic;
// only its analysis state is read, never written, so one donor may serve
// concurrent NewWithSymbolic calls. The pattern of a is compared with
// the donor's input entry for entry, in the same pass that writes the
// new values of the factored matrix through the donor's value map; the
// Solver shares the donor's pattern and owns only those values.
func NewWithSymbolic(a *sparse.CSC, donor *Solver) (*Solver, error) {
	if donor == nil || donor.sym == nil {
		return nil, fmt.Errorf("core: NewWithSymbolic: donor holds no symbolic analysis")
	}
	if a.Rows != donor.n || a.Cols != donor.n {
		return nil, fmt.Errorf("core: NewWithSymbolic: matrix is %dx%d, donor analyzed n=%d", a.Rows, a.Cols, donor.n)
	}
	val, zeroDiags, err := donor.in.values(a, donor.dR, donor.dC)
	if err != nil {
		return nil, fmt.Errorf("core: NewWithSymbolic: pattern mismatch: %w", err)
	}
	s := &Solver{
		opts:   donor.opts,
		n:      donor.n,
		rowMap: donor.rowMap,
		colMap: donor.colMap,
		dR:     donor.dR,
		dC:     donor.dC,
		ap:     &sparse.CSC{Rows: donor.n, Cols: donor.n, ColPtr: donor.ap.ColPtr, RowInd: donor.ap.RowInd, Val: val},
		in:     donor.in,
		sym:    donor.sym,
		sched:  donor.sched,
		skel:   donor.skel,
	}
	s.stats.N = s.n
	s.stats.NnzA = len(val)
	s.stats.ZeroDiagsIn = zeroDiags
	s.stats.NnzLU = s.sym.FillLU()
	s.stats.Flops = s.sym.Flops
	s.stats.NumSuper = s.sym.NumSupernodes()
	s.stats.AvgSuper = s.sym.AvgSupernode()
	s.stats.RunWidth = s.sym.RunWidth
	if err := s.factorNumeric(); err != nil {
		return nil, err
	}
	return s, nil
}

// DistSolve factors and solves on a simulated distributed-memory machine
// (the paper's Section 3). The preprocessing and symbolic analysis of
// this Solver are reused, and so is the block skeleton (dist.Structure),
// built on the first DistSolve of the analysis; the numeric
// factorization and both triangular solves run distributed. The
// returned solution is in original coordinates; the dist.Result carries
// the simulated machine statistics that Tables 3–5 report.
//
// Step (4) is Solve's, run on the distributed solution: when this Solver
// also holds serial factors (built with New rather than NewAnalysis) they
// refine it, correcting any tiny-pivot perturbations, as Refine or the
// resilience ladder dictates. Otherwise the componentwise backward error
// of the raw distributed solution is still measured and recorded in Stats.
func (s *Solver) DistSolve(b []float64, dopts dist.Options) ([]float64, *dist.Result, error) {
	if len(b) != s.n {
		return nil, nil, fmt.Errorf("core: right-hand side length %d, want %d", len(b), s.n)
	}
	dopts.ReplaceTinyPivot = dopts.ReplaceTinyPivot || s.opts.ReplaceTinyPivot
	res, err := dist.Solve(s.ap, s.skel.structure(s.sym), s.scale(make([]float64, s.n), b), dopts)
	if err != nil {
		return nil, res, err
	}
	x, err := first(s.solve(context.Background(), [][]float64{b}, res.X))
	return x, res, err
}

// Solve computes x with A·x = b (original coordinates), running step (4)
// refinement — or the full resilience ladder — when enabled. It may be
// called repeatedly with different right-hand sides.
func (s *Solver) Solve(b []float64) ([]float64, error) {
	return s.SolveCtx(context.Background(), b)
}

// SolveCtx is Solve with a context: with a resilience ladder the climb
// honors ctx cancellation and deadlines between refinement iterations
// and inside the Krylov rung; without one the context is only checked on
// entry. On ladder exhaustion the best iterate found is returned
// alongside the error (errors.Is(err, resilience.ErrUnrecovered)). It is
// SolveBatchCtx on a batch of one.
func (s *Solver) SolveCtx(ctx context.Context, b []float64) ([]float64, error) {
	return first(s.SolveBatchCtx(ctx, [][]float64{b}))
}

// first returns the solution of a batch of one the way Solve reports it:
// beside ErrUnrecovered the ladder's best iterate, beside any other error
// none.
func first(xs [][]float64, errs []error, err error) ([]float64, error) {
	if err == nil && errs != nil {
		err = errs[0]
	}
	if xs == nil || err != nil && !errors.Is(err, resilience.ErrUnrecovered) {
		return nil, err
	}
	return xs[0], err
}

// scale maps a right-hand side b into the solver's internal coordinates,
// b̂[rowMap[i]] = dR[i]·b[i], writing b̂ into bh and returning it.
func (s *Solver) scale(bh, b []float64) []float64 {
	for i := 0; i < s.n; i++ {
		bh[s.rowMap[i]] = s.dR[i] * b[i]
	}
	return bh
}

// unscale maps a solution y from the solver's internal coordinates back
// to the original ones, x[j] = dC[j]·ŷ[colMap[j]], writing x and
// returning it.
func (s *Solver) unscale(x, y []float64) []float64 {
	for j := 0; j < s.n; j++ {
		x[j] = s.dC[j] * y[s.colMap[j]]
	}
	return x
}

// Escalation returns the trace of the most recent resilient solve (nil
// without Options.Resilience). The pointee is overwritten by the next
// solve on this Solver.
func (s *Solver) Escalation() *resilience.Escalation {
	if s.ladder == nil {
		return nil
	}
	return s.ladder.LastTrace()
}

// SolveBatch solves A·xᵣ = bᵣ for every right-hand side in bs (original
// coordinates) kernels.Lanes vectors to a tile
// (refine.Workspace.SolveRefine): the initial sweep and each refinement
// step walk the factors, and A for the residuals, once per tile of
// right-hand sides instead of once per vector, which is where serving
// throughput comes from. Each vector stops by its own berr, and every
// tile kernel gives each lane the bits of the single-vector one, so
// every solution is bitwise the one Solve returns for that right-hand
// side. The recorded Berr/RefineSteps/Converged stats describe the
// batch's worst vector (see Stats).
//
// SolveBatch is not safe for concurrent use on one Solver (it mutates
// solve statistics); the serving layer serializes batches per factor.
func (s *Solver) SolveBatch(bs [][]float64) ([][]float64, error) {
	xs, errs, err := s.SolveBatchCtx(context.Background(), bs)
	if err == nil {
		for _, e := range errs {
			if e != nil {
				err = e
				break
			}
		}
	}
	return xs, err
}

// SolveBatchCtx is SolveBatch with a context and per-vector error
// reporting. With a resilience ladder, rung 0 is that blocked refinement,
// run on every block of right-hand sides at once; only a vector it leaves
// above the ladder's tolerance then climbs, one vector at a time, from
// rung 1. A vector whose ladder fails keeps its best-effort iterate and
// its error lands in errs[r] (errs is nil when every vector succeeded),
// so one poisoned right-hand side cannot fail its batch-mates. The third
// result is a batch-level failure: validation or context cancellation.
func (s *Solver) SolveBatchCtx(ctx context.Context, bs [][]float64) (xs [][]float64, errs []error, err error) {
	if s.fac == nil {
		return nil, nil, fmt.Errorf("core: Solver holds no numeric factors; use New or NewWithSymbolic")
	}
	for r, b := range bs {
		if len(b) != s.n {
			return nil, nil, fmt.Errorf("core: right-hand side %d has length %d, want %d", r, len(b), s.n)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return s.solve(ctx, bs, nil)
}

// solve runs scale → sweep → step (4) → unscale on the right-hand sides
// bs, each block of them (rhsBlocks) on its own goroutine; then, with a
// ladder, the vectors rung 0 left above tolerance climb one at a time,
// and Stats records the batch's worst vector. Each block's initial
// sweep and its refinement run in one refine.Workspace's tiles, b packed
// once and x unpacked once. x0, when not nil, is the scaled starting
// iterate of a batch of one (DistSolve's distributed solution) and
// replaces the initial sweep.
func (s *Solver) solve(ctx context.Context, bs [][]float64, x0 []float64) (xs [][]float64, errs []error, err error) {
	k, n := len(bs), s.n
	if k == 0 {
		return nil, nil, nil
	}
	buf := make([]float64, 2*n*k)
	y, bh := buf[:n*k], buf[n*k:]
	xs = make([][]float64, k)
	sts := make([]refine.Stats, k)
	tSweep, tRefine := s.rhsBlocks(k, func(r0, r1 int) (time.Duration, time.Duration) {
		t0 := time.Now()
		yb, bb := y[r0*n:r1*n], bh[r0*n:r1*n]
		for r := r0; r < r1; r++ {
			s.scale(bh[r*n:(r+1)*n], bs[r])
		}
		// A block of two or more runs its initial sweep inside the
		// refinement's tiles; a single vector is swept here, so that its
		// sweep is timed apart.
		var ws refine.Workspace
		refineFrom := ws.SolveRefine
		switch {
		case x0 != nil:
			copy(yb, x0)
			refineFrom = ws.Refine
		case r1-r0 == 1:
			copy(yb, bb)
			s.sys.Solve(yb)
			refineFrom = ws.Refine
		}
		t1 := time.Now()
		refineFrom(sts[r0:r1], s.ap, s.sys, yb, bb, s.refineOptions(ctx, t1))
		t2 := time.Now()
		for r := r0; r < r1; r++ {
			xs[r] = s.unscale(make([]float64, n), y[r*n:(r+1)*n])
		}
		return t1.Sub(t0), t2.Sub(t1)
	})
	s.stats.Times.Solve = tSweep

	t0 := time.Now()
	worst := batchOutcome{berr: math.Inf(-1), converged: true}
	for r, st := range sts {
		if s.ladder == nil {
			worst.add(st.Steps, st.FinalBerr, st.Berrs, st.Converged, resilience.RungStatic)
			continue
		}
		yr := y[r*n : (r+1)*n]
		tr, rerr := s.ladder.Escalate(ctx, yr, bh[r*n:(r+1)*n], st, tRefine)
		if tr.Escalated() {
			s.unscale(xs[r], yr)
			s.stats.Escalations++
			s.stats.FallbackTime += tr.FallbackCost()
		}
		iters := 0
		for _, step := range tr.Steps {
			iters += step.Iterations
		}
		worst.add(iters, tr.FinalBerr, nil, tr.Converged, tr.FinalRung)
		if rerr != nil {
			// Only the context's error ends the batch: ErrUnrecovered
			// keeps its iterate even if ctx ended during the last rung.
			if errors.Is(rerr, ctx.Err()) {
				return nil, nil, rerr
			}
			if errs == nil {
				errs = make([]error, k)
			}
			errs[r] = rerr
		}
	}
	worst.record(&s.stats)
	s.stats.Times.Refine = tRefine + time.Since(t0)
	return xs, errs, nil
}

// refineOptions returns step (4)'s options: rung 0 with a ladder, its
// deadline counted from start, the Refine, MaxRefine and ExtraPrecision
// options without one, and, with refinement off or no factors to refine
// with (an analysis-only DistSolve), a loop that measures each vector's
// berr and stops before its first correction.
func (s *Solver) refineOptions(ctx context.Context, start time.Time) refine.Options {
	switch {
	case s.ladder != nil:
		return s.ladder.Rung0(ctx, start)
	case s.opts.Refine && s.sys != nil:
		return refine.Options{MaxIter: s.opts.MaxRefine, ExtraPrecision: s.opts.ExtraPrecision}
	}
	return refine.Options{Cancel: func() bool { return true }}
}

// rhsBlocks runs fn over the k right-hand sides of a batch cut into at
// most Options.Workers contiguous blocks [r0, r1) of whole tiles
// (kernels.Lanes vectors share a pass over the factors, and a narrower
// block walks L and U for less than a pass's worth), one goroutine per
// block, and returns when all are done, with the largest sweep and
// refinement times fn reported. A batch of k vectors thus runs on at
// most ⌈k/Lanes⌉ goroutines whatever Workers is. Right-hand sides are
// independent and every sweep treats a vector the same whatever its
// block-mates, so the cut changes no bit of any solution; the factors
// and s.sys are only read, and so is the ladder, by Rung0.
func (s *Solver) rhsBlocks(k int, fn func(r0, r1 int) (tSweep, tRefine time.Duration)) (tSweep, tRefine time.Duration) {
	ntiles := (k + kernels.Lanes - 1) / kernels.Lanes
	w := min(s.opts.Workers, ntiles)
	if w <= 1 {
		return fn(0, k)
	}
	times := make([][2]time.Duration, w)
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i][0], times[i][1] = fn(kernels.Lanes*(i*ntiles/w), min(k, kernels.Lanes*((i+1)*ntiles/w)))
		}()
	}
	wg.Wait()
	for _, t := range times {
		tSweep, tRefine = max(tSweep, t[0]), max(tRefine, t[1])
	}
	return tSweep, tRefine
}

// batchOutcome folds the per-vector refinement results of a batch into
// what Stats reports for it: the worst vector.
type batchOutcome struct {
	steps     int
	berr      float64 // starts at -Inf
	hist      []float64
	converged bool // starts true
	rung      resilience.Rung
}

func (o *batchOutcome) add(steps int, berr float64, hist []float64, converged bool, rung resilience.Rung) {
	if berr > o.berr || math.IsNaN(berr) {
		o.berr, o.hist = berr, hist
	}
	o.steps = max(o.steps, steps)
	o.rung = max(o.rung, rung)
	o.converged = o.converged && converged
}

func (o *batchOutcome) record(st *Stats) {
	st.RefineSteps, st.Berr, st.BerrHistory = o.steps, o.berr, o.hist
	st.Converged, st.LastRung = o.converged, o.rung
}

// Stats returns the accumulated statistics (analysis stats after New,
// solve/refinement stats after Solve).
func (s *Solver) Stats() Stats { return s.stats }

// PermutedMatrix exposes the matrix that was actually factored, in the
// solver's internal coordinates; distributed drivers and tests use it.
func (s *Solver) PermutedMatrix() *sparse.CSC { return s.ap }

// Symbolic exposes the static elimination structure.
func (s *Solver) Symbolic() *symbolic.Result { return s.sym }

// Factors exposes the numeric factors.
func (s *Solver) Factors() *lu.Factors { return s.fac }

// Mapping exposes, read-only, how the analysis carries A's values and
// vectors into PermutedMatrix's coordinates: entry k of A (CSC order),
// at (i, j), is entry dst[k] of the factored matrix, scaled by
// dR[i]·dC[j]; row i of a right-hand side goes to rowMap[i] scaled by
// dR[i], and column j of the solution is dC[j]·y[colMap[j]]. A solver
// over another value type with A's pattern writes its values through it.
func (s *Solver) Mapping() (rowMap, colMap []int, dR, dC []float64, dst []int32) {
	return s.rowMap, s.colMap, s.dR, s.dC, s.in.dst
}

// CondEst estimates the 1-norm condition number of the factored
// (permuted, scaled) matrix, recording the estimate and Hager
// convergence flag in Stats.
func (s *Solver) CondEst() float64 {
	est, ok := refine.Cond1Est(s.ap, s.sys)
	s.stats.CondEst = est
	s.stats.CondEstConverged = ok
	return est
}

// ForwardErrorBound estimates the componentwise forward error of the
// solution x for right-hand side b, both in ORIGINAL coordinates. This is
// the expensive optional diagnostic of the paper's Figure 6.
func (s *Solver) ForwardErrorBound(x, b []float64) float64 {
	t0 := time.Now()
	defer func() { s.stats.Times.Ferr = time.Since(t0) }()
	bh := s.scale(make([]float64, s.n), b)
	yh := make([]float64, s.n)
	for j := 0; j < s.n; j++ {
		yh[s.colMap[j]] = x[j] / s.dC[j]
	}
	return refine.ForwardErrorBound(s.ap, s.sys, yh, bh)
}
