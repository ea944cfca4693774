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
	"sync"
	"time"

	"gesp/internal/dist"
	"gesp/internal/equil"
	"gesp/internal/krylov"
	"gesp/internal/lu"
	"gesp/internal/matching"
	"gesp/internal/ordering"
	"gesp/internal/refine"
	"gesp/internal/resilience"
	"gesp/internal/sched"
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
	// Workers sets the shared-memory parallelism of the factorization: 0
	// (or 1) runs the serial scalar engine; >1 runs the DAG-scheduled
	// supernodal factorization (sched.Factorize) on that many
	// goroutines, and SolveBatch cuts a batch into up to that many
	// contiguous blocks of right-hand sides, each swept and refined on
	// its own goroutine. A single vector's solve and refinement are the
	// same serial sweeps for every value, so for given factors no
	// solution depends on it. AggressivePivot forces the serial engine
	// regardless — the block kernels do not record the rank-one pivot
	// perturbations SMW recovery needs.
	Workers int
	// Resilience, when non-nil, routes every Solve/SolveBatch through the
	// escalation ladder of internal/resilience: plain GESP refinement
	// first, then (as the backward error dictates) extra-precision
	// refinement, SMW recovery, LU-preconditioned GMRES and finally a
	// partial-pivoting refactorization. It supersedes the Refine/
	// MaxRefine/ExtraPrecision toggles for those calls. The pointed-to
	// Policy is read once at factorization time.
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
	Solve    time.Duration // triangular solves of the last Solve call
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
	// The last solve's refinement outcome. After SolveBatch these
	// describe the batch by its worst vector: the largest Berr (NaN
	// counting as largest) with that vector's BerrHistory, the largest
	// RefineSteps, and Converged only if every vector converged.
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

	ap  *sparse.CSC // the matrix actually factored: Pc·Pr·DR·A·DC·Pcᵀ
	sym *symbolic.Result
	fac *lu.Factors
	sys refine.System

	// ladder is the escalation engine (nil unless Options.Resilience);
	// it owns scratch, so Solve/SolveBatch with a ladder are not safe
	// for concurrent use — same contract as the stats fields.
	ladder *resilience.Ladder

	patternHash uint64 // structural fingerprint of the ORIGINAL input

	stats Stats
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
	s := &Solver{opts: opts, n: n}
	s.patternHash = sparse.PatternHash(a)
	s.stats.N = n
	s.stats.NnzA = a.Nnz()
	s.stats.ZeroDiagsIn = a.ZeroDiagonals()

	work := a.Clone()
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

	// Step (1b): permute large entries to the diagonal.
	s.rowMap = sparse.IdentityPerm(n)
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
		work = work.PermuteRows(mc.RowPerm)
		s.rowMap = mc.RowPerm
		s.stats.DiagLogProd = mc.LogProd
	}

	// Step (2): fill-reducing ordering, applied to rows AND columns so the
	// large diagonal stays on the diagonal.
	s.stats.OrderRuns++
	t0 := time.Now()
	pc := ordering.Order(work, opts.Ordering)
	s.stats.Times.Order = time.Since(t0)
	work = work.PermuteSym(pc)
	s.colMap = pc
	s.rowMap = sparse.ComposePerm(pc, s.rowMap)

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

	s.ap, s.sym = work, sym
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
// way for the fresh-analysis and symbolic-reuse paths. Workers > 1
// selects the DAG-scheduled shared-memory supernodal engine; the
// aggressive-pivot/SMW workflow needs the scalar kernels' PivotMods
// bookkeeping, so it stays serial.
func (s *Solver) factorNumeric() error {
	opts := s.opts
	s.stats.FactorRuns++
	t0 := time.Now()
	luOpts := lu.Options{
		ReplaceTinyPivot: opts.ReplaceTinyPivot,
		Aggressive:       opts.AggressivePivot,
	}
	var fac *lu.Factors
	var err2 error
	if opts.Workers > 1 && !opts.AggressivePivot {
		var blocks *dist.BlockGrid
		var tiny int
		if blocks, tiny, err2 = sched.Factorize(s.ap, s.sym, luOpts, opts.Workers); err2 == nil {
			fac = blocks.Factors(s.ap)
			fac.TinyPivots = tiny
		}
	} else {
		fac, err2 = lu.Factorize(s.ap, s.sym, luOpts)
	}
	if err2 != nil {
		return fmt.Errorf("core: factorization: %w", err2)
	}
	s.stats.Times.Factor = time.Since(t0)
	s.stats.TinyPivots = fac.TinyPivots
	s.stats.RecipGrowth = fac.ReciprocalPivotGrowth()

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
// The donor may have been built by New or NewAnalysis; only its analysis
// state is read, never written, so one donor may serve concurrent
// NewWithSymbolic calls. Pattern identity is checked via
// sparse.PatternHash.
func NewWithSymbolic(a *sparse.CSC, donor *Solver) (*Solver, error) {
	if donor == nil || donor.sym == nil {
		return nil, fmt.Errorf("core: NewWithSymbolic: donor holds no symbolic analysis")
	}
	if a.Rows != donor.n || a.Cols != donor.n {
		return nil, fmt.Errorf("core: NewWithSymbolic: matrix is %dx%d, donor analyzed n=%d", a.Rows, a.Cols, donor.n)
	}
	if h := sparse.PatternHash(a); h != donor.patternHash {
		return nil, fmt.Errorf("core: NewWithSymbolic: pattern fingerprint %#x does not match donor's %#x", h, donor.patternHash)
	}
	s := &Solver{
		opts:        donor.opts,
		n:           donor.n,
		rowMap:      donor.rowMap,
		colMap:      donor.colMap,
		dR:          donor.dR,
		dC:          donor.dC,
		sym:         donor.sym,
		patternHash: donor.patternHash,
	}
	s.stats.N = s.n
	s.stats.NnzA = a.Nnz()
	s.stats.ZeroDiagsIn = a.ZeroDiagonals()
	s.stats.NnzLU = s.sym.FillLU()
	s.stats.Flops = s.sym.Flops
	s.stats.NumSuper = s.sym.NumSupernodes()
	s.stats.AvgSuper = s.sym.AvgSupernode()
	s.stats.RunWidth = s.sym.RunWidth

	// Rebuild the factored matrix Pc·Pr·DR·A·DC·Pcᵀ from the new values
	// under the donor's transformations: pure data movement, no analysis.
	work := a.Clone()
	work.ScaleRowsCols(s.dR, s.dC)
	s.ap = work.PermuteRows(s.rowMap).PermuteCols(s.colMap)
	if err := s.factorNumeric(); err != nil {
		return nil, err
	}
	return s, nil
}

// DistSolve factors and solves on a simulated distributed-memory machine
// (the paper's Section 3). The preprocessing and symbolic analysis of
// this Solver are reused; the numeric factorization and both triangular
// solves run distributed. The returned solution is in original
// coordinates; the dist.Result carries the simulated machine statistics
// that Tables 3–5 report.
//
// Step (4) refinement: when this Solver also holds serial factors (built
// with New rather than NewAnalysis) and Refine is enabled, the
// distributed solution is refined serially, correcting any tiny-pivot
// perturbations. Otherwise the componentwise backward error of the raw
// distributed solution is still measured and recorded in Stats.
func (s *Solver) DistSolve(b []float64, dopts dist.Options) ([]float64, *dist.Result, error) {
	if len(b) != s.n {
		return nil, nil, fmt.Errorf("core: right-hand side length %d, want %d", len(b), s.n)
	}
	dopts.ReplaceTinyPivot = dopts.ReplaceTinyPivot || s.opts.ReplaceTinyPivot
	bh := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		bh[s.rowMap[i]] = s.dR[i] * b[i]
	}
	res, err := dist.Solve(s.ap, s.sym, bh, dopts)
	if err != nil {
		return nil, res, err
	}
	y := append([]float64(nil), res.X...)
	if s.opts.Refine && s.sys != nil {
		st := refine.Refine(s.ap, s.sys, y, bh, refine.Options{
			MaxIter:        s.opts.MaxRefine,
			ExtraPrecision: s.opts.ExtraPrecision,
		})
		s.stats.RefineSteps = st.Steps
		s.stats.Berr = st.FinalBerr
		s.stats.BerrHistory = st.Berrs
		s.stats.Converged = st.Converged
	} else {
		s.stats.RefineSteps = 0
		s.stats.Berr = refine.Berr(s.ap, y, bh)
		s.stats.BerrHistory = []float64{s.stats.Berr}
		s.stats.Converged = s.stats.Berr <= lu.Eps
	}
	x := make([]float64, s.n)
	for j := 0; j < s.n; j++ {
		x[j] = s.dC[j] * y[s.colMap[j]]
	}
	return x, res, nil
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
// alongside the error (errors.Is(err, resilience.ErrUnrecovered)).
func (s *Solver) SolveCtx(ctx context.Context, b []float64) ([]float64, error) {
	if len(b) != s.n {
		return nil, fmt.Errorf("core: right-hand side length %d, want %d", len(b), s.n)
	}
	if s.sys == nil {
		return nil, fmt.Errorf("core: Solver built with NewAnalysis holds no numeric factors; use DistSolve or New")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// b̂[rowMap[i]] = dR[i]·b[i]; solve Â·ŷ = b̂; x[j] = dC[j]·ŷ[colMap[j]].
	bh := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		bh[s.rowMap[i]] = s.dR[i] * b[i]
	}

	if s.ladder != nil {
		y := make([]float64, s.n)
		t0 := time.Now()
		tr, err := s.ladder.Solve(ctx, y, bh)
		s.stats.Times.Solve = time.Since(t0)
		s.recordEscalation(tr)
		if err != nil {
			if tr.Converged || errorsIsUnrecovered(err) {
				// Best-effort iterate travels with the error.
				return s.unscale(y), err
			}
			return nil, err
		}
		return s.unscale(y), nil
	}

	t0 := time.Now()
	y := append([]float64(nil), bh...)
	s.sys.Solve(y)
	s.stats.Times.Solve = time.Since(t0)

	if s.opts.Refine {
		t0 = time.Now()
		st := refine.Refine(s.ap, s.sys, y, bh, refine.Options{
			MaxIter:        s.opts.MaxRefine,
			ExtraPrecision: s.opts.ExtraPrecision,
		})
		s.stats.Times.Refine = time.Since(t0)
		s.stats.RefineSteps = st.Steps
		s.stats.Berr = st.FinalBerr
		s.stats.BerrHistory = st.Berrs
		s.stats.Converged = st.Converged
	} else {
		s.stats.Berr = refine.Berr(s.ap, y, bh)
		s.stats.Converged = s.stats.Berr <= lu.Eps
	}

	return s.unscale(y), nil
}

// unscale maps a solution from the solver's internal coordinates back to
// the original ones: x[j] = dC[j]·ŷ[colMap[j]].
func (s *Solver) unscale(y []float64) []float64 {
	x := make([]float64, s.n)
	for j := 0; j < s.n; j++ {
		x[j] = s.dC[j] * y[s.colMap[j]]
	}
	return x
}

// recordEscalation folds a ladder trace into the solve statistics.
func (s *Solver) recordEscalation(tr *resilience.Escalation) {
	iters := 0
	for _, st := range tr.Steps {
		iters += st.Iterations
	}
	s.stats.RefineSteps = iters
	s.stats.Berr = tr.FinalBerr
	s.stats.Converged = tr.Converged
	s.stats.LastRung = tr.FinalRung
	if tr.Escalated() {
		s.stats.Escalations++
		s.stats.FallbackTime += tr.FallbackCost()
	}
	s.stats.Times.Refine = tr.Total
}

func errorsIsUnrecovered(err error) bool {
	return errors.Is(err, resilience.ErrUnrecovered)
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

// SolveIterative solves A·x = b with GMRES preconditioned by the
// existing LU factors, never touching refinement or the ladder. This is
// the serving layer's load-shedding path: unlike Solve/SolveBatch it is
// safe to call concurrently with batched solves on the same Solver (it
// allocates its own workspace and records no statistics), trading the
// direct path's guarantees for bounded, cancellable work under overload.
func (s *Solver) SolveIterative(ctx context.Context, b []float64, opts krylov.Options) ([]float64, krylov.Stats, error) {
	if len(b) != s.n {
		return nil, krylov.Stats{}, fmt.Errorf("core: right-hand side length %d, want %d", len(b), s.n)
	}
	if s.fac == nil {
		return nil, krylov.Stats{}, fmt.Errorf("core: Solver holds no numeric factors; use New or NewWithSymbolic")
	}
	bh := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		bh[s.rowMap[i]] = s.dR[i] * b[i]
	}
	prev := opts.Cancel
	opts.Cancel = func() bool {
		return ctx.Err() != nil || (prev != nil && prev())
	}
	y := make([]float64, s.n)
	_, st := krylov.GMRES(s.ap, facPreconditioner{s.fac}, y, bh, opts)
	if err := ctx.Err(); err != nil {
		return nil, st, err
	}
	if !st.Converged {
		return s.unscale(y), st, fmt.Errorf("core: iterative solve stopped at relative residual %.3e after %d iterations", st.Residual, st.Iterations)
	}
	return s.unscale(y), st, nil
}

// facPreconditioner adapts the LU factors to krylov.Preconditioner.
// Factors.Solve only reads factor data and mutates its argument, so the
// adapter is safe for concurrent use with distinct vectors.
type facPreconditioner struct{ f *lu.Factors }

func (p facPreconditioner) Apply(x []float64) { p.f.Solve(x) }

// SolveBatch solves A·xᵣ = bᵣ for every right-hand side in bs (original
// coordinates) through one column-blocked multi-RHS triangular sweep
// (lu.Factors.SolveMulti): the factors are walked once per block of
// right-hand sides instead of once per vector, which is where serving
// throughput comes from. Refinement, when enabled, is blocked the same
// way (refine.RefineMulti): each step corrects every vector still
// refining with one more such sweep, and each vector stops by its own
// berr, so every solution is bitwise the one Solve returns for that
// right-hand side. The recorded Berr/RefineSteps/Converged stats
// describe the batch's worst vector (see Stats).
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
// reporting. With a resilience ladder, each right-hand side is
// individually escalated after the shared triangular sweep; a vector
// whose ladder fails keeps its best-effort iterate and its error lands
// in errs[r] (errs is nil when every vector succeeded), so one poisoned
// right-hand side cannot fail its batch-mates. The third result is a
// batch-level failure: validation or context cancellation.
func (s *Solver) SolveBatchCtx(ctx context.Context, bs [][]float64) (xs [][]float64, errs []error, err error) {
	if s.fac == nil {
		return nil, nil, fmt.Errorf("core: Solver holds no numeric factors; use New or NewWithSymbolic")
	}
	k := len(bs)
	if k == 0 {
		return nil, nil, nil
	}
	for r, b := range bs {
		if len(b) != s.n {
			return nil, nil, fmt.Errorf("core: right-hand side %d has length %d, want %d", r, len(b), s.n)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// Pack b̂ᵣ[rowMap[i]] = dR[i]·bᵣ[i] column-major, one sweep, unpack
	// xᵣ[j] = dC[j]·ŷᵣ[colMap[j]].
	t0 := time.Now()
	packed := make([]float64, s.n*k)
	for r, b := range bs {
		seg := packed[r*s.n : (r+1)*s.n]
		for i := 0; i < s.n; i++ {
			seg[s.rowMap[i]] = s.dR[i] * b[i]
		}
	}
	refining := s.opts.Refine || s.ladder != nil
	var bh []float64
	if refining {
		bh = append([]float64(nil), packed...)
	}
	n := s.n
	s.rhsBlocks(k, func(r0, r1 int) { s.fac.SolveMulti(packed[r0*n:r1*n], r1-r0) })
	s.stats.Times.Solve = time.Since(t0)

	worst := batchOutcome{berr: math.Inf(-1), converged: true}
	if s.ladder != nil {
		t0 = time.Now()
		for r := 0; r < k; r++ {
			tr, rerr := s.ladder.Refine(ctx, packed[r*n:(r+1)*n], bh[r*n:(r+1)*n])
			s.recordEscalation(tr)
			worst.add(s.stats.RefineSteps, tr.FinalBerr, nil, tr.Converged, tr.FinalRung)
			if rerr != nil {
				if ctx.Err() != nil {
					return nil, nil, rerr
				}
				if errs == nil {
					errs = make([]error, k)
				}
				errs[r] = rerr
			}
		}
		worst.record(&s.stats)
		s.stats.Times.Refine = time.Since(t0)
	} else if s.opts.Refine {
		t0 = time.Now()
		sts := make([]refine.Stats, k)
		s.rhsBlocks(k, func(r0, r1 int) {
			copy(sts[r0:r1], refine.RefineMulti(s.ap, s.sys, packed[r0*n:r1*n], bh[r0*n:r1*n], r1-r0, refine.Options{
				MaxIter:        s.opts.MaxRefine,
				ExtraPrecision: s.opts.ExtraPrecision,
			}))
		})
		for _, st := range sts {
			worst.add(st.Steps, st.FinalBerr, st.Berrs, st.Converged, resilience.RungStatic)
		}
		worst.record(&s.stats)
		s.stats.Times.Refine = time.Since(t0)
	}

	xs = make([][]float64, k)
	for r := 0; r < k; r++ {
		xs[r] = s.unscale(packed[r*s.n : (r+1)*s.n])
	}
	return xs, errs, nil
}

// rhsQuad is how many right-hand sides one pass over the factors carries
// in the blocked sweep (kernels.SolveSparseLMulti): a narrower block
// walks L and U for less than a pass's worth of vectors.
const rhsQuad = 4

// rhsBlocks runs fn over the k right-hand sides of a batch cut into at
// most Options.Workers contiguous blocks [r0, r1) of whole quads, one
// goroutine per block, and returns when all are done. Right-hand sides
// are independent and every sweep treats a vector the same whatever its
// block-mates, so the cut changes no bit of any solution; the factors
// and s.sys are only read.
func (s *Solver) rhsBlocks(k int, fn func(r0, r1 int)) {
	quads := (k + rhsQuad - 1) / rhsQuad
	w := min(s.opts.Workers, quads)
	if w <= 1 {
		fn(0, k)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(rhsQuad*(i*quads/w), min(k, rhsQuad*((i+1)*quads/w)))
		}()
	}
	wg.Wait()
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

// PatternHash returns the structural fingerprint of the ORIGINAL input
// matrix (sparse.PatternHash), the key under which this Solver's
// analysis may be reused by NewWithSymbolic.
func (s *Solver) PatternHash() uint64 { return s.patternHash }

// PermutedMatrix exposes the matrix that was actually factored, in the
// solver's internal coordinates; distributed drivers and tests use it.
func (s *Solver) PermutedMatrix() *sparse.CSC { return s.ap }

// Symbolic exposes the static elimination structure.
func (s *Solver) Symbolic() *symbolic.Result { return s.sym }

// Factors exposes the numeric factors.
func (s *Solver) Factors() *lu.Factors { return s.fac }

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
	bh := make([]float64, s.n)
	yh := make([]float64, s.n)
	for i := 0; i < s.n; i++ {
		bh[s.rowMap[i]] = s.dR[i] * b[i]
	}
	for j := 0; j < s.n; j++ {
		yh[s.colMap[j]] = x[j] / s.dC[j]
	}
	return refine.ForwardErrorBound(s.ap, s.sys, yh, bh)
}
