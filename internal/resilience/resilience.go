// Package resilience turns GESP's "no pivoting + iterative refinement"
// bet into a bounded-risk contract. The paper's own safety argument is
// an escalation story: static pivoting is safe *because* the
// componentwise backward error is watched and, when refinement cannot
// repair the damage, progressively stronger (and more expensive)
// recovery mechanisms exist — recover the true system from the recorded
// pivot perturbations (Sherman–Morrison–Woodbury), use the stale LU as
// a preconditioner for an iterative method, or give up on static
// pivoting and refactor with partial pivoting. This package wires those
// rungs, all of which already exist in the codebase, into one
// policy-driven ladder:
//
//	rung 0  static-pivot solve + berr-driven refinement (the paper)
//	rung 1  patient refinement with extra-precision residuals
//	rung 2  SMW recovery of the unperturbed system (needs PivotMods)
//	rung 3  GMRES preconditioned by the (possibly stale) LU factors
//	rung 4  Gilbert–Peierls partial-pivoting refactorization
//
// Each rung is gated by a berr tolerance, a stall/divergence detector
// and an optional per-rung deadline; every solve carries a structured
// Escalation trace recording which rungs ran, why each was entered, and
// what it cost. The happy path — rung 0 converging, the overwhelmingly
// common case per the paper's Figure 3 — allocates nothing beyond the
// ladder's reusable scratch.
//
// The ladder operates in the solver's internal coordinates: the matrix
// it watches is the permuted, scaled system that was factored
// (core.Solver wires it up behind Options.Resilience).
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"gesp/internal/krylov"
	"gesp/internal/lu"
	"gesp/internal/refine"
	"gesp/internal/sparse"
)

// Rung identifies one level of the escalation ladder.
type Rung int

const (
	// RungStatic is the paper's pipeline: static-pivot factors plus
	// berr-driven iterative refinement.
	RungStatic Rung = iota
	// RungExtraPrecision retries refinement with compensated-precision
	// residuals and a patient stall rule (only bail when berr stops
	// decreasing), recovering slow geometric convergence that rung 0's
	// halving test abandons.
	RungExtraPrecision
	// RungSMW solves the true, unperturbed system through the
	// Sherman–Morrison–Woodbury correction built from the recorded
	// tiny-pivot modifications. Skipped when no pivot was perturbed.
	RungSMW
	// RungIterative runs GMRES preconditioned by the existing (possibly
	// stale or perturbed) LU factors — a Krylov method converges where
	// stationary refinement diverges.
	RungIterative
	// RungGEPP abandons static pivoting: refactor with Gilbert–Peierls
	// partial pivoting and solve against the fresh factors.
	RungGEPP
	// NumRungs is the ladder height.
	NumRungs
)

var rungNames = [NumRungs]string{"static", "extraprec", "smw", "gmres", "gepp"}

// String returns the rung's short name.
func (r Rung) String() string {
	if r < 0 || r >= NumRungs {
		return fmt.Sprintf("rung(%d)", int(r))
	}
	return rungNames[r]
}

// Trigger says why the ladder entered a rung (or, for the final trace
// entry, why the rung below gave up).
type Trigger int

const (
	// TriggerNone marks the first rung of a solve.
	TriggerNone Trigger = iota
	// TriggerBerrAboveTol: the rung below exhausted its iteration
	// budget with berr still above tolerance.
	TriggerBerrAboveTol
	// TriggerStall: berr stopped improving above tolerance.
	TriggerStall
	// TriggerDiverge: berr grew between iterations.
	TriggerDiverge
	// TriggerNonFinite: the iterate or its berr became NaN/Inf.
	TriggerNonFinite
	// TriggerDeadline: the rung hit its per-rung deadline.
	TriggerDeadline
	// TriggerCorruptFactors: the factor fingerprint no longer matches
	// the one recorded at factorization (Policy.VerifyFactors); the
	// ladder jumps straight to the refactorization rung.
	TriggerCorruptFactors
)

var triggerNames = [...]string{"none", "berr>tol", "stall", "diverge", "nonfinite", "deadline", "corrupt-factors"}

// String returns the trigger's short name.
func (t Trigger) String() string {
	if t < 0 || int(t) >= len(triggerNames) {
		return fmt.Sprintf("trigger(%d)", int(t))
	}
	return triggerNames[t]
}

// Step records one rung's attempt within a solve.
type Step struct {
	Rung    Rung
	Trigger Trigger // why the ladder entered this rung
	// Skipped marks a rung that could not run (no pivot modifications
	// for SMW, singular capacitance, GEPP breakdown); BerrAfter then
	// repeats BerrBefore.
	Skipped    bool
	BerrBefore float64
	BerrAfter  float64
	Iterations int // refinement or Krylov iterations spent
	Cost       time.Duration
}

// Escalation is the structured trace attached to every resilient
// solve: which rungs ran, in order, and where the solve ended. The
// pointer returned by Ladder.Solve refers to ladder-owned storage and
// is valid until the next solve on that ladder.
type Escalation struct {
	Steps     []Step
	FinalRung Rung
	FinalBerr float64
	Converged bool
	Total     time.Duration
}

// FallbackCost is the time spent above rung 0 — the price of this
// solve's escalation, zero on the happy path.
func (e *Escalation) FallbackCost() time.Duration {
	var d time.Duration
	for _, s := range e.Steps {
		if s.Rung > RungStatic {
			d += s.Cost
		}
	}
	return d
}

// Escalated reports whether the solve climbed above rung 0.
func (e *Escalation) Escalated() bool { return e.FinalRung > RungStatic }

// String formats the trace as a one-line escalation history.
func (e *Escalation) String() string {
	var b strings.Builder
	for i, s := range e.Steps {
		if i > 0 {
			fmt.Fprintf(&b, " -> ")
		}
		fmt.Fprintf(&b, "%s", s.Rung)
		if s.Trigger != TriggerNone {
			fmt.Fprintf(&b, "[%s]", s.Trigger)
		}
		if s.Skipped {
			b.WriteString("(skipped)")
		} else {
			fmt.Fprintf(&b, " berr %.2e->%.2e (%d it, %v)", s.BerrBefore, s.BerrAfter, s.Iterations, s.Cost)
		}
	}
	fmt.Fprintf(&b, "; final %s berr %.2e converged=%v", e.FinalRung, e.FinalBerr, e.Converged)
	return b.String()
}

// Policy tunes the ladder. The zero value is the recommended default:
// sqrt(eps) tolerance, the full ladder, no per-rung deadline.
type Policy struct {
	// BerrTol is the componentwise backward error every rung must reach
	// to stop the climb; 0 means sqrt(eps) (~1.5e-8), the scale at
	// which the paper's tiny-pivot perturbations live.
	BerrTol float64
	// MaxRung caps the climb; 0 means the full ladder (RungGEPP). To
	// disable escalation entirely, run without a ladder.
	MaxRung Rung
	// MaxRefine bounds rung 0's refinement iterations; 0 means 10.
	MaxRefine int
	// PatientRefine bounds the refinement iterations of rungs 1, 2 and
	// 4, which use the patient stall rule; 0 means 60.
	PatientRefine int
	// RungDeadline is each rung's wall-clock budget; a rung that
	// exceeds it is abandoned and the ladder climbs. 0 means none.
	RungDeadline time.Duration
	// GMRES tunes rung 3; zero fields mean Tol 1e-12, MaxIter 500,
	// Restart 60. Cancel is overwritten by the ladder to honor the
	// solve's context and the per-rung deadline.
	GMRES krylov.Options
	// VerifyFactors re-fingerprints the factor values before every
	// solve and jumps straight to RungGEPP on a mismatch — the
	// factor-cache corruption defense. Costs one O(nnz(L+U)) pass per
	// solve.
	VerifyFactors bool
	// OnTrace, when non-nil, observes every completed solve's trace
	// (including non-escalated ones). The pointee is reused by the next
	// solve; copy what must outlive the callback.
	OnTrace func(*Escalation)
}

// Ladder escalation errors.
var (
	// ErrNonFiniteRHS reports NaN or Inf in the right-hand side: no
	// rung can recover a poisoned input, so the ladder fails fast
	// instead of climbing.
	ErrNonFiniteRHS = errors.New("resilience: right-hand side contains NaN or Inf")
	// ErrUnrecovered reports the ladder exhausted every permitted rung
	// with berr still above tolerance. The Escalation trace says what
	// was tried.
	ErrUnrecovered = errors.New("resilience: escalation ladder exhausted without reaching tolerance")
)

// Ladder is the per-factorization escalation engine. It owns reusable
// scratch sized to the system, so one Ladder serves many solves with
// zero allocations on the non-escalated path; it is NOT safe for
// concurrent use (the serving layer serializes solves per factor).
type Ladder struct {
	a   *sparse.CSC
	fac *lu.Factors
	sys refine.System
	pol Policy

	tol     float64
	maxRung Rung
	fp      uint64 // factor fingerprint at build time (VerifyFactors)

	// Escalation machinery built on first use, cached across solves.
	smw      refine.System
	smwErr   error
	smwBuilt bool
	gepp     *geppSystem
	geppErr  error

	// Scratch: r is the residual and, solved in place, the refinement
	// correction; work is refine.ResidualBerr's (2n, for the compensated
	// residual).
	r, work []float64

	steps [NumRungs]Step
	trace Escalation
}

// NewLadder builds a ladder for the (permuted, scaled) system a whose
// static-pivot factors are fac. sys is the solver rung 0 refines with —
// usually fac itself, or an SMW-wrapped system; nil means fac.
func NewLadder(a *sparse.CSC, fac *lu.Factors, sys refine.System, pol Policy) *Ladder {
	if sys == nil {
		sys = fac
	}
	l := &Ladder{a: a, fac: fac, sys: sys, pol: pol}
	l.tol = pol.BerrTol
	if l.tol <= 0 {
		l.tol = math.Sqrt(lu.Eps)
	}
	l.maxRung = pol.MaxRung
	if l.maxRung <= 0 || l.maxRung >= NumRungs {
		l.maxRung = RungGEPP
	}
	if pol.VerifyFactors && fac != nil {
		l.fp = fac.Fingerprint()
	}
	n := a.Rows
	l.r = make([]float64, n)
	l.work = make([]float64, 2*n)
	return l
}

// Tol returns the ladder's effective berr tolerance.
func (l *Ladder) Tol() float64 { return l.tol }

// LastTrace returns the trace of the most recent solve (ladder-owned;
// overwritten by the next solve).
func (l *Ladder) LastTrace() *Escalation { return &l.trace }

// Solve computes x ≈ A⁻¹b through the ladder: the rung-0 static solve
// first, then escalation as triggered. x and b must have length n; x is
// overwritten. The returned trace is ladder-owned and valid until the
// next solve.
func (l *Ladder) Solve(ctx context.Context, x, b []float64) (*Escalation, error) {
	return l.run(ctx, x, b, true)
}

// Refine is Solve for a caller that already holds an initial solution
// in x (e.g. one vector of a batched triangular sweep): rung 0 starts
// with refinement of x rather than a fresh solve.
func (l *Ladder) Refine(ctx context.Context, x, b []float64) (*Escalation, error) {
	return l.run(ctx, x, b, false)
}

func (l *Ladder) run(ctx context.Context, x, b []float64, fresh bool) (*Escalation, error) {
	t0 := time.Now()
	l.trace = Escalation{Steps: l.steps[:0], FinalBerr: math.Inf(1)}
	if !finiteVec(b) {
		return l.finish(t0, ErrNonFiniteRHS)
	}

	start, trigger := RungStatic, TriggerNone
	if l.pol.VerifyFactors && l.fac != nil && l.fac.Fingerprint() != l.fp {
		// The numeric factors changed underneath us: every rung that
		// reuses them is compromised, so go straight to refactorization.
		start, trigger = RungGEPP, TriggerCorruptFactors
	} else if fresh {
		copy(x, b)
		l.sys.Solve(x)
	}

	berrCur := math.Inf(1)
	for rung := start; rung <= l.maxRung; rung++ {
		if err := ctx.Err(); err != nil {
			return l.finish(t0, err)
		}
		rt0 := time.Now()
		var deadline time.Time
		if l.pol.RungDeadline > 0 {
			deadline = rt0.Add(l.pol.RungDeadline)
		}
		res := l.runRung(ctx, rung, x, b, deadline)
		step := Step{
			Rung:       rung,
			Trigger:    trigger,
			Skipped:    res.skipped,
			BerrBefore: res.before,
			BerrAfter:  res.berr,
			Iterations: res.iters,
			Cost:       time.Since(rt0),
		}
		if res.skipped {
			step.BerrBefore, step.BerrAfter = berrCur, berrCur
		}
		l.trace.Steps = append(l.trace.Steps, step)
		l.trace.FinalRung = rung
		if !res.skipped {
			berrCur = res.berr
			l.trace.FinalBerr = res.berr
			if res.berr <= l.tol {
				l.trace.Converged = true
				return l.finish(t0, nil)
			}
			trigger = res.trig
		}
		// A skipped rung keeps the previous trigger: the next rung is
		// still answering the last real failure.
	}
	return l.finish(t0, fmt.Errorf("%w: berr %.3e after rung %s", ErrUnrecovered, l.trace.FinalBerr, l.trace.FinalRung))
}

func (l *Ladder) finish(t0 time.Time, err error) (*Escalation, error) {
	l.trace.Total = time.Since(t0)
	if l.pol.OnTrace != nil {
		l.pol.OnTrace(&l.trace)
	}
	return &l.trace, err
}

// rungResult is one rung attempt's outcome.
type rungResult struct {
	before  float64 // berr on entry (after the rung's own initial solve)
	berr    float64
	iters   int
	trig    Trigger // why the rung gave up (meaningless on success)
	skipped bool
}

func (l *Ladder) runRung(ctx context.Context, rung Rung, x, b []float64, deadline time.Time) rungResult {
	switch rung {
	case RungStatic:
		return l.refineLoop(ctx, l.sys, x, b, false, false, l.maxRefine0(), deadline)
	case RungExtraPrecision:
		if !finiteVec(x) {
			// A non-finite iterate cannot be refined; restart from the
			// static solve (if the factors are poisoned this stays
			// non-finite and the loop exits immediately).
			copy(x, b)
			l.sys.Solve(x)
		}
		return l.refineLoop(ctx, l.sys, x, b, true, true, l.maxRefinePatient(), deadline)
	case RungSMW:
		sys := l.smwSystem()
		if sys == nil {
			return rungResult{skipped: true}
		}
		copy(x, b)
		sys.Solve(x)
		return l.refineLoop(ctx, sys, x, b, true, true, l.maxRefinePatient(), deadline)
	case RungIterative:
		return l.runIterative(ctx, x, b, deadline)
	case RungGEPP:
		g := l.geppSystem()
		if g == nil {
			return rungResult{skipped: true}
		}
		copy(x, b)
		g.Solve(x)
		return l.refineLoop(ctx, g, x, b, true, true, l.maxRefinePatient(), deadline)
	}
	return rungResult{skipped: true}
}

func (l *Ladder) maxRefine0() int {
	if l.pol.MaxRefine > 0 {
		return l.pol.MaxRefine
	}
	return 10
}

func (l *Ladder) maxRefinePatient() int {
	if l.pol.PatientRefine > 0 {
		return l.pol.PatientRefine
	}
	return 60
}

// refineLoop is the ladder's allocation-free refinement loop: berr and
// residual from refine's fused kernel on ladder-owned scratch, but its
// own termination — per-rung deadlines, a trigger for every exit, and two
// stall rules: the paper's halving test (patient=false), or the patient
// rule that only bails when berr stops decreasing at all (patient=true).
func (l *Ladder) refineLoop(ctx context.Context, sys refine.System, x, b []float64, extra, patient bool, maxIter int, deadline time.Time) rungResult {
	be := l.berr(x, b, extra)
	res := rungResult{before: be, berr: be}
	if !isFinite(be) {
		res.trig = TriggerNonFinite
		return res
	}
	if be <= lu.Eps {
		return res
	}
	prev := be
	for res.iters < maxIter {
		if ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline)) {
			res.trig = TriggerDeadline
			return res
		}
		// l.r still holds the residual of the current x.
		sys.Solve(l.r)
		for i := range x {
			x[i] += l.r[i]
		}
		res.iters++
		be = l.berr(x, b, extra)
		res.berr = be
		if !isFinite(be) {
			res.trig = TriggerNonFinite
			return res
		}
		if be <= lu.Eps {
			return res
		}
		if patient {
			if be >= prev {
				if be > prev {
					res.trig = TriggerDiverge
				} else {
					res.trig = TriggerStall
				}
				return res
			}
		} else if be > prev/2 {
			// The paper's second termination test: berr failed to halve.
			if be > prev {
				res.trig = TriggerDiverge
			} else {
				res.trig = TriggerStall
			}
			return res
		}
		prev = be
	}
	res.trig = TriggerBerrAboveTol
	return res
}

// runIterative is rung 3: GMRES on the watched system, preconditioned
// by whatever rung 0 solves with (the stale or perturbed LU).
func (l *Ladder) runIterative(ctx context.Context, x, b []float64, deadline time.Time) rungResult {
	res := rungResult{before: l.berr(x, b, true)}
	opts := l.pol.GMRES
	if opts.Tol == 0 {
		opts.Tol = 1e-12
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = 500
	}
	if opts.Restart == 0 {
		opts.Restart = 60
	}
	opts.Cancel = func() bool {
		return ctx.Err() != nil || (!deadline.IsZero() && time.Now().After(deadline))
	}
	if !finiteVec(x) {
		for i := range x {
			x[i] = 0
		}
	}
	_, st := krylov.GMRES(l.a, preconditioner{l.sys}, x, b, opts)
	res.iters = st.Iterations
	be := l.berr(x, b, true)
	res.berr = be
	switch {
	case st.Canceled:
		res.trig = TriggerDeadline
	case !isFinite(be):
		res.trig = TriggerNonFinite
	default:
		res.trig = TriggerBerrAboveTol
	}
	return res
}

// smwSystem lazily builds (and caches) the Sherman–Morrison–Woodbury
// recovery of the true system; nil means the rung is unavailable — no
// recorded pivot modifications, poisoned factors, or a singular
// capacitance matrix (the true system itself is numerically singular).
func (l *Ladder) smwSystem() refine.System {
	if !l.smwBuilt {
		l.smwBuilt = true
		switch {
		case l.fac == nil || len(l.fac.PivotMods) == 0:
			l.smwErr = errors.New("resilience: no pivot modifications recorded")
		case l.fac.NonFinite():
			l.smwErr = errors.New("resilience: factors are non-finite")
		default:
			smw, err := refine.NewSMWSolver(l.fac)
			if err != nil {
				l.smwErr = err
			} else {
				l.smw = smw
			}
		}
	}
	return l.smw
}

// geppSystem lazily refactors the watched matrix with partial pivoting;
// nil means GEPP itself broke down (structural singularity).
func (l *Ladder) geppSystem() *geppSystem {
	if l.gepp == nil && l.geppErr == nil {
		f, err := lu.GEPP(l.a)
		if err != nil {
			l.geppErr = err
		} else {
			l.gepp = newGEPPSystem(f)
		}
	}
	return l.gepp
}

// GEPPError returns the cached rung-4 refactorization failure, if any.
func (l *Ladder) GEPPError() error { return l.geppErr }

// berr computes the componentwise backward error of x, leaving the
// residual in l.r (the refinement loop reuses it as the correction).
// extra selects the compensated-precision residual.
func (l *Ladder) berr(x, b []float64, extra bool) float64 {
	return refine.ResidualBerr(l.a, l.r, l.work, x, b, extra)
}

// preconditioner adapts a refine.System to krylov.Preconditioner.
type preconditioner struct{ sys refine.System }

func (p preconditioner) Apply(x []float64) { p.sys.Solve(x) }

// geppSystem adapts partial-pivoting factors (whose rows live in pivot
// order) to the refine.System interface in original row coordinates.
type geppSystem struct {
	f       *lu.GEPPFactors
	scratch []float64
}

func newGEPPSystem(f *lu.GEPPFactors) *geppSystem {
	return &geppSystem{f: f, scratch: make([]float64, len(f.RowPerm))}
}

// Solve overwrites x with A⁻¹x: permute into pivot order, then the
// triangular solves.
func (g *geppSystem) Solve(x []float64) {
	for i, v := range x {
		g.scratch[g.f.RowPerm[i]] = v
	}
	copy(x, g.scratch)
	g.f.Solve(x)
}

// SolveT overwrites x with A⁻ᵀx = Pᵀ·(LU)⁻ᵀ·x.
func (g *geppSystem) SolveT(x []float64) {
	g.f.SolveT(x)
	for i := range x {
		g.scratch[i] = x[g.f.RowPerm[i]]
	}
	copy(x, g.scratch)
}

func isFinite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func finiteVec(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
