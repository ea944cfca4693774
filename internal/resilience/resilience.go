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
// Each rung is gated by a berr tolerance and an optional per-rung
// deadline; rungs 0, 1, 2 and 4 are refine's one refinement loop, whose
// exits (stall, divergence, non-finite berr, iteration budget) are the
// ladder's triggers. Every solve carries a structured Escalation trace
// recording which rungs ran, why each was entered, and what it cost.
//
// Rung 0 can run outside the ladder: core refines a whole block of
// right-hand sides in refine.Workspace's tiles under Ladder.Rung0's options
// and hands each vector's Stats to Ladder.Escalate, so only the vectors
// it leaves above tolerance climb, one at a time. Ladder.Solve runs rung
// 0 itself on the ladder's refine.Workspace; its happy path — rung 0
// converging, the overwhelmingly common case per the paper's Figure 3 —
// allocates nothing.
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
// entry, why the rung below gave up). A refinement rung's trigger is its
// refine.Exit: the ladder names refine's exits, it does not re-decide them.
type Trigger int

const (
	// TriggerNone marks the first rung of a solve (and a refinement rung
	// that reached eps yet stayed above a Policy.BerrTol below eps).
	TriggerNone = Trigger(refine.ExitConverged)
	// TriggerStall: berr stopped improving above tolerance.
	TriggerStall = Trigger(refine.ExitStall)
	// TriggerDiverge: berr grew between iterations.
	TriggerDiverge = Trigger(refine.ExitDiverge)
	// TriggerNonFinite: the iterate or its berr became NaN/Inf.
	TriggerNonFinite = Trigger(refine.ExitNonFinite)
	// TriggerBerrAboveTol: the rung below exhausted its iteration
	// budget with berr still above tolerance.
	TriggerBerrAboveTol = Trigger(refine.ExitMaxIter)
	// TriggerDeadline: the rung hit its per-rung deadline or the solve's
	// context ended.
	TriggerDeadline = Trigger(refine.ExitCancelled)
	// TriggerCorruptFactors: the factor fingerprint no longer matches
	// the one recorded at factorization (Policy.VerifyFactors); the
	// ladder jumps straight to the refactorization rung.
	TriggerCorruptFactors = TriggerDeadline + 1
)

var triggerNames = [...]string{
	TriggerNone: "none", TriggerBerrAboveTol: "berr>tol", TriggerStall: "stall", TriggerDiverge: "diverge",
	TriggerNonFinite: "nonfinite", TriggerDeadline: "deadline", TriggerCorruptFactors: "corrupt-factors",
}

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
	// exceeds it is abandoned and the ladder climbs. 0 means none. Run by
	// core on a block of right-hand sides, rung 0's budget covers the
	// block; every vector it cuts off then climbs on its own budget.
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
// concurrent use (the serving layer serializes solves per factor). Only
// Rung0 may be called concurrently, with itself.
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

	// The refinement rungs' scratch and outcome.
	ws refine.Workspace
	st [1]refine.Stats

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
	return l
}

// Tol returns the ladder's effective berr tolerance.
func (l *Ladder) Tol() float64 { return l.tol }

// LastTrace returns the trace of the most recent solve (ladder-owned;
// overwritten by the next solve).
func (l *Ladder) LastTrace() *Escalation { return &l.trace }

// Solve computes x ≈ A⁻¹b through the ladder: the static solve and rung 0
// first, then escalation as triggered. x and b must have length n; x is
// overwritten. The returned trace is ladder-owned and valid until the
// next solve.
func (l *Ladder) Solve(ctx context.Context, x, b []float64) (*Escalation, error) {
	t0 := time.Now()
	copy(x, b)
	l.sys.Solve(x)
	l.ws.Refine(l.st[:], l.a, l.sys, x, b, l.Rung0(ctx, time.Now()))
	return l.Escalate(ctx, x, b, l.st[0], time.Since(t0))
}

// Rung0 returns rung 0's refinement options: the paper's loop (halving
// test, working-precision residuals, Policy.MaxRefine steps), cancelled
// when ctx ends or the rung's deadline, counted from start, passes.
// A caller that runs rung 0 itself refines its solutions with them and
// hands each vector's Stats to Escalate; core does so with one
// refine.Workspace refinement per block of right-hand sides, so the
// deadline then covers the whole block, its initial sweep included when
// the block has two vectors or more.
func (l *Ladder) Rung0(ctx context.Context, start time.Time) refine.Options {
	return refine.Options{MaxIter: l.pol.MaxRefine, Cancel: l.cancel(ctx, start)}
}

// cancel reports whether ctx has ended or Policy.RungDeadline has passed
// since start. Solve's rung 0 must not allocate, so cancel and Rung0 stay
// inlinable, and their caller reads the clock.
func (l *Ladder) cancel(ctx context.Context, start time.Time) func() bool {
	return func() bool {
		return ctx.Err() != nil || (l.pol.RungDeadline > 0 && time.Since(start) > l.pol.RungDeadline)
	}
}

// Escalate finishes a solve whose rung 0 the caller ran with Rung0's
// options: x is the vector's rung-0 iterate, st its refine.Stats and cost
// the rung's wall time. A vector rung 0 left above tolerance climbs from
// rung 1, and the trace is the one Solve records for it.
func (l *Ladder) Escalate(ctx context.Context, x, b []float64, st refine.Stats, cost time.Duration) (*Escalation, error) {
	t0 := time.Now().Add(-cost)
	l.trace = Escalation{Steps: l.steps[:0], FinalBerr: math.Inf(1)}
	if !finiteVec(b) {
		return l.finish(t0, ErrNonFiniteRHS)
	}

	start, trigger := RungStatic, TriggerNone
	if l.pol.VerifyFactors && l.fac != nil && l.fac.Fingerprint() != l.fp {
		// The numeric factors changed underneath us: every rung that
		// reuses them is compromised, so go straight to refactorization.
		start, trigger = RungGEPP, TriggerCorruptFactors
	}

	berrCur, res := math.Inf(1), outcome(st)
	for rung := start; rung <= l.maxRung; rung++ {
		if err := ctx.Err(); err != nil {
			return l.finish(t0, err)
		}
		if rung > RungStatic {
			rt0 := time.Now()
			res = l.runRung(ctx, rung, x, b, rt0)
			cost = time.Since(rt0)
		}
		step := Step{
			Rung:       rung,
			Trigger:    trigger,
			Skipped:    res.skipped,
			BerrBefore: res.before,
			BerrAfter:  res.berr,
			Iterations: res.iters,
			Cost:       cost,
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

// outcome is a refinement rung's result.
func outcome(st refine.Stats) rungResult {
	return rungResult{before: st.Berrs[0], berr: st.FinalBerr, iters: st.Steps, trig: Trigger(st.Exit)}
}

// runRung runs rungs 1 to 4. Rungs 1, 2 and 4 refine with compensated
// residuals and the patient stall rule: from the iterate rung 0 left, from
// an SMW solve and from a GEPP solve.
func (l *Ladder) runRung(ctx context.Context, rung Rung, x, b []float64, start time.Time) rungResult {
	var sys refine.System
	switch rung {
	case RungExtraPrecision:
		if !finiteVec(x) {
			// A non-finite iterate cannot be refined; restart from the
			// static solve (if the factors are poisoned this stays
			// non-finite and the loop exits immediately).
			copy(x, b)
			l.sys.Solve(x)
		}
		return l.refinePatient(l.cancel(ctx, start), l.sys, x, b)
	case RungSMW:
		sys = l.smwSystem()
	case RungIterative:
		return l.runIterative(l.cancel(ctx, start), x, b)
	case RungGEPP:
		if g := l.geppSystem(); g != nil {
			sys = g
		}
	}
	if sys == nil {
		return rungResult{skipped: true}
	}
	copy(x, b)
	sys.Solve(x)
	return l.refinePatient(l.cancel(ctx, start), sys, x, b)
}

func (l *Ladder) refinePatient(cancel func() bool, sys refine.System, x, b []float64) rungResult {
	maxIter := l.pol.PatientRefine
	if maxIter <= 0 {
		maxIter = 60
	}
	l.ws.Refine(l.st[:], l.a, sys, x, b, refine.Options{MaxIter: maxIter, ExtraPrecision: true, Patient: true, Cancel: cancel})
	return outcome(l.st[0])
}

// runIterative is rung 3: GMRES on the watched system, preconditioned
// by whatever rung 0 solves with (the stale or perturbed LU).
func (l *Ladder) runIterative(cancel func() bool, x, b []float64) rungResult {
	n := len(b)
	scratch := make([]float64, 3*n)
	berr := func() float64 { return refine.ResidualBerr(l.a, scratch[:n], scratch[n:], x, b, true) }
	res := rungResult{before: berr()}
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
	opts.Cancel = cancel
	if !finiteVec(x) {
		for i := range x {
			x[i] = 0
		}
	}
	_, st := krylov.GMRES(l.a, preconditioner{l.sys}, x, b, opts)
	res.iters = st.Iterations
	be := berr()
	res.berr = be
	switch {
	case st.Canceled:
		res.trig = TriggerDeadline
	case math.IsNaN(be) || math.IsInf(be, 0):
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

func finiteVec(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
