// Package refine implements step (4) of the GESP algorithm: iterative
// refinement driven by the componentwise backward error (berr), plus the
// error-analysis machinery the paper's software exposes — a Hager 1-norm
// condition estimator, a componentwise forward error bound in the style of
// LAPACK's xGERFS, an optional extra-precision residual (one of the
// paper's future-work proposals, realized with compensated FMA
// arithmetic), and Sherman–Morrison–Woodbury recovery of the original
// system after aggressive pivot perturbations.
package refine

import (
	"math"

	"gesp/internal/lu"
	"gesp/internal/sparse"
)

// System is anything that can apply M⁻¹ and M⁻ᵀ in place; *lu.Factors and
// *SMWSolver both satisfy it.
type System interface {
	Solve(x []float64)
	SolveT(x []float64)
}

// multiSolver is the blocked sweep a System may offer besides Solve:
// M⁻¹ applied to nrhs vectors packed with stride n, each bitwise equal
// to Solve on that vector alone (*lu.Factors.SolveMulti).
type multiSolver interface {
	SolveMulti(x []float64, nrhs int)
}

// Options tune the refinement loop.
type Options struct {
	// MaxIter bounds the number of correction steps; 0 means 10.
	MaxIter int
	// BerrTol is the convergence target; 0 means machine epsilon, the
	// paper's criterion.
	BerrTol float64
	// ExtraPrecision computes residuals in compensated (roughly doubled)
	// precision using FMA-based error-free transformations.
	ExtraPrecision bool
	// Patient replaces the paper's halving test by a patient stall rule:
	// a vector refines on while berr decreases at all and stops only when
	// it stays level or grows. It recovers the slow geometric convergence
	// the halving test abandons (the resilience ladder's rungs 1, 2, 4).
	Patient bool
	// Cancel, when non-nil, is polled before every correction step;
	// returning true stops every vector still refining with ExitCancelled.
	// The resilience ladder wires its context and per-rung deadline
	// through it.
	Cancel func() bool
}

// Exit says why the refinement of a vector stopped.
type Exit int

const (
	// ExitConverged: berr reached BerrTol.
	ExitConverged Exit = iota
	// ExitStall: berr failed to halve (with Patient, failed to decrease)
	// but did not grow.
	ExitStall
	// ExitDiverge: berr grew.
	ExitDiverge
	// ExitNonFinite: berr became NaN or +Inf.
	ExitNonFinite
	// ExitMaxIter: MaxIter corrections left berr above BerrTol.
	ExitMaxIter
	// ExitCancelled: Options.Cancel returned true.
	ExitCancelled
)

// Stats reports what the refinement loop did.
type Stats struct {
	// Steps is the number of refinement iterations performed (each one
	// residual + solve + update), the quantity of the paper's Figure 3.
	Steps int
	// Berrs[k] is the componentwise backward error after k corrections;
	// Berrs[0] is the initial solve's berr.
	Berrs []float64
	// FinalBerr is the last measured berr (the paper's Figure 5 metric).
	FinalBerr float64
	// Converged reports whether FinalBerr reached BerrTol.
	Converged bool
	// Exit is why refinement stopped.
	Exit Exit
}

// ResidualBerr computes r = b − A·x and returns the componentwise
// (Oettli–Prager) backward error max_i |r|_i / (|A|·|x| + |b|)_i, both
// from one pass over A. Rows with a zero denominator and zero residual
// contribute nothing; a nonzero residual over a zero denominator, or one
// that overflowed, yields +Inf; a NaN in any row yields NaN (NaN compares
// false against everything, so it would otherwise pass for berr 0). extra
// accumulates A·x in compensated precision with FMA-based error-free
// transformations. work is scratch of n floats, 2n with extra; on return
// work[:n] holds |A|·|x|. Nothing is allocated.
//
//gesp:hotpath
func ResidualBerr(a *sparse.CSC, r, work, x, b []float64, extra bool) float64 {
	n := len(b)
	r, den := r[:n], work[:n]
	var comp []float64
	if extra {
		comp = work[n : 2*n]
	}
	clear(r)
	clear(den)
	clear(comp)
	// r accumulates A·x and den |A|·|x| column by column, so each row's
	// sum has the order of sparse.CSC.MatVec and AbsMatVec.
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		axj := math.Abs(xj)
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		ind, val := a.RowInd[lo:hi], a.Val[lo:hi]
		switch {
		case xj == 0:
			// A·x skips the column; |A|·|x| must not, or a non-finite
			// entry of A would stop poisoning its row.
			for q, i := range ind {
				den[i] += math.Abs(val[q]) * axj
			}
		case !extra:
			for q, i := range ind {
				v := val[q]
				r[i] += v * xj
				den[i] += math.Abs(v) * axj
			}
		default:
			for q, i := range ind {
				v := val[q]
				p := v * xj
				e := math.FMA(v, xj, -p) // exact product error
				// TwoSum accumulate p into r[i].
				s := r[i] + p
				bv := s - r[i]
				err := (r[i] - (s - bv)) + (p - bv)
				r[i] = s
				comp[i] += err + e
				den[i] += math.Abs(v) * axj
			}
		}
	}
	berr, inf, nan := 0.0, false, false
	for i, bi := range b {
		ri := bi - r[i]
		if extra {
			ri -= comp[i] // the small part last
		}
		r[i] = ri
		ri = math.Abs(ri)
		d := den[i] + math.Abs(bi)
		switch {
		case math.IsNaN(d) || math.IsNaN(ri):
			nan = true
		case math.IsInf(ri, 1):
			// The residual overflowed; over an infinite d too its ratio
			// would be NaN, which no comparison keeps.
			inf = true
		case d > 0:
			if q := ri / d; q > berr {
				berr = q
			}
		case ri > 0:
			inf = true
		}
	}
	switch {
	case nan:
		return math.NaN()
	case inf:
		return math.Inf(1)
	}
	return berr
}

// Berr computes the componentwise backward error of x (see ResidualBerr).
func Berr(a *sparse.CSC, x, b []float64) float64 {
	n := len(b)
	buf := make([]float64, 2*n)
	return ResidualBerr(a, buf[:n], buf[n:], x, b, false)
}

// Refine improves x (an initial solution of A·x = b obtained from sys) in
// place, following the paper's termination rule: stop when berr is below
// tolerance, when it fails to halve between iterations (stagnation; with
// Options.Patient, when it fails to decrease), or at MaxIter. A berr that
// is NaN or +Inf stops the loop too, not converged, the initial berr
// included: NaN is a poisoned iterate, and +Inf an overflowed residual,
// which no working-precision correction can be trusted to repair.
// Stats.Exit says which rule fired.
func Refine(a *sparse.CSC, sys System, x, b []float64, opts Options) Stats {
	var st [1]Stats
	var ws Workspace
	ws.Refine(st[:], a, sys, x, b, opts)
	return st[0]
}

// RefineMulti refines the nrhs solutions packed in x (vector v occupies
// x[v*n : (v+1)*n], the lu.Factors.SolveMulti layout; b likewise) as one
// batch: every step corrects all vectors still refining with one
// SolveMulti. Termination is decided per vector by Refine's rules, and
// because the blocked sweep is bitwise equal to Solve, each vector's
// iterates and Stats are exactly those of refining it alone.
func RefineMulti(a *sparse.CSC, sys System, x, b []float64, nrhs int, opts Options) []Stats {
	st := make([]Stats, nrhs)
	var ws Workspace
	ws.Refine(st, a, sys, x, b, opts)
	return st
}

// SolveMulti overwrites the nrhs vectors packed in x (RefineMulti's
// layout) with M⁻¹ applied to each: one blocked sweep when sys offers one
// (*lu.Factors.SolveMulti), Solve per vector when it does not (SMW
// recovery, the ladder's GEPP rung). Either way each vector gets the bits
// Solve gives it alone.
//
//gesp:hotpath
func SolveMulti(sys System, x []float64, nrhs int) {
	if m, ok := sys.(multiSolver); ok && nrhs > 1 {
		m.SolveMulti(x, nrhs)
		return
	}
	n := len(x) / nrhs
	for q := 0; q < nrhs; q++ {
		sys.Solve(x[q*n : (q+1)*n]) //gesp:allocok a System without a blocked sweep (SMW, GEPP rung) owns its solve's allocations; *lu.Factors.Solve makes none
	}
}

// historyCap is how many berr values per vector are preallocated; the
// paper's Figure 3 has no matrix above 5 steps and MaxIter defaults
// to 10, so longer histories (which grow by append) are rare.
const historyCap = 16

// Workspace is the scratch of a refinement: the residual block, the berr
// histories and the active set. Refine and RefineMulti use a fresh one
// per call; a caller that refines again and again can keep one, which
// allocates nothing once it has grown to the widest batch. The Berrs of
// the Stats it fills are then its own storage, valid until its next use.
// A Workspace is not safe for concurrent use.
type Workspace struct {
	buf, hist []float64
	act       []int
}

// grow returns (*s)[:n], reallocating *s when it is too short.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// batch is the state of one blocked refinement. The vectors still
// refining are act, in ascending order; the residual of act[q] — the
// right-hand side of its next correction — is r[q*n : (q+1)*n], so the
// survivors of every step are already packed for the next sweep.
type batch struct {
	a       *sparse.CSC
	sys     System
	n       int
	x, b    []float64
	r       []float64
	work    []float64
	extra   bool
	patient bool
	tol     float64
	act     []int
	st      []Stats
}

// Refine is RefineMulti on the len(st) solutions packed in x, writing
// vector v's outcome to st[v].
func (ws *Workspace) Refine(st []Stats, a *sparse.CSC, sys System, x, b []float64, opts Options) {
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 10
	}
	nrhs := len(st)
	if nrhs == 0 {
		return
	}
	n := len(b) / nrhs
	w := batch{a: a, sys: sys, n: n, x: x, b: b, extra: opts.ExtraPrecision, patient: opts.Patient, tol: opts.BerrTol, st: st}
	if w.tol <= 0 {
		w.tol = lu.Eps
	}
	nwork := n
	if w.extra {
		nwork = 2 * n
	}
	buf := grow(&ws.buf, n*nrhs+nwork)
	w.r, w.work = buf[:n*nrhs], buf[n*nrhs:]
	// The histories get their own slab: callers keep Stats.Berrs, and it
	// must not pin the residual block.
	stride := min(maxIter+1, historyCap)
	hist := grow(&ws.hist, nrhs*stride)
	w.act = grow(&ws.act, nrhs)[:0]

	for v := range st {
		be := ResidualBerr(a, w.r[len(w.act)*n:], w.work, x[v*n:(v+1)*n], b[v*n:(v+1)*n], w.extra)
		st[v] = Stats{Berrs: append(hist[v*stride:v*stride:(v+1)*stride], be), FinalBerr: be}
		switch {
		case be <= w.tol:
			st[v].Converged = true
		case math.IsNaN(be) || math.IsInf(be, 1):
			st[v].Exit = ExitNonFinite
		default:
			w.act = append(w.act, v)
		}
	}
	for step := 1; len(w.act) > 0 && step <= maxIter; step++ {
		if opts.Cancel != nil && opts.Cancel() {
			for _, v := range w.act {
				st[v].Exit = ExitCancelled
			}
			return
		}
		w.step()
		// Exactly the vectors this step corrected are at Steps == step.
		for v := range st {
			if st[v].Steps == step {
				st[v].Berrs = append(st[v].Berrs, st[v].FinalBerr)
			}
		}
	}
	for _, v := range w.act {
		st[v].Exit = ExitMaxIter
	}
}

// step runs one refinement iteration on every active vector: one sweep
// over the packed residuals, then per vector the update, the fused
// residual/berr pass and the termination tests, writing each survivor's
// new residual to the front of r.
//
//gesp:hotpath
func (w *batch) step() {
	n, m := w.n, len(w.act)
	SolveMulti(w.sys, w.r[:m*n], m)
	k := 0
	for q, v := range w.act {
		x := w.x[v*n : (v+1)*n]
		for i, d := range w.r[q*n : (q+1)*n] {
			x[i] += d
		}
		// Slot k ≤ q: its correction has been applied already.
		be := ResidualBerr(w.a, w.r[k*n:(k+1)*n], w.work, x, w.b[v*n:(v+1)*n], w.extra)
		s := &w.st[v]
		prev := s.FinalBerr
		s.Steps++
		s.FinalBerr = be
		switch {
		case be <= w.tol:
			s.Converged = true
		case math.IsNaN(be) || math.IsInf(be, 1):
			s.Exit = ExitNonFinite
		case be > prev:
			s.Exit = ExitDiverge
		case w.patient && be >= prev, !w.patient && be > prev/2:
			// Stagnation: the paper's second test, berr failed to halve,
			// or under the patient rule failed to decrease at all.
			s.Exit = ExitStall
		default:
			w.act[k] = v
			k++
		}
	}
	w.act = w.act[:k]
}
