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
}

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
}

// ResidualBerr computes r = b − A·x and returns the componentwise
// (Oettli–Prager) backward error max_i |r|_i / (|A|·|x| + |b|)_i, both
// from one pass over A. Rows with a zero denominator and zero residual
// contribute nothing; a nonzero residual over a zero denominator yields
// +Inf; a NaN in any row yields NaN (NaN compares false against
// everything, so it would otherwise pass for berr 0). extra accumulates
// A·x in compensated precision with FMA-based error-free
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
// tolerance, when it fails to halve between iterations (stagnation), or at
// MaxIter. A berr of NaN (a poisoned iterate) also stops the loop, not
// converged.
func Refine(a *sparse.CSC, sys System, x, b []float64, opts Options) Stats {
	var st [1]Stats
	refineInto(st[:], a, sys, x, b, opts)
	return st[0]
}

// RefineMulti refines the nrhs solutions packed in x (vector v occupies
// x[v*n : (v+1)*n], the lu.Factors.SolveMulti layout; b likewise) as one
// batch: every step corrects all vectors still refining with a single
// blocked sweep when sys offers one (SolveMulti), and falls back to Solve
// per vector when it does not. Termination is decided per vector by
// Refine's rules, and because the blocked sweep is bitwise equal to
// Solve, each vector's iterates and Stats are exactly those of refining
// it alone.
func RefineMulti(a *sparse.CSC, sys System, x, b []float64, nrhs int, opts Options) []Stats {
	st := make([]Stats, nrhs)
	refineInto(st, a, sys, x, b, opts)
	return st
}

// historyCap is how many berr values per vector are preallocated; the
// paper's Figure 3 has no matrix above 5 steps and MaxIter defaults
// to 10, so longer histories (which grow by append) are rare.
const historyCap = 16

// batch is the state of one blocked refinement. The vectors still
// refining are act, in ascending order; the residual of act[q] — the
// right-hand side of its next correction — is r[q*n : (q+1)*n], so the
// survivors of every step are already packed for the next sweep.
type batch struct {
	a     *sparse.CSC
	sys   System
	multi multiSolver // nil: correct through sys.Solve, one vector at a time
	n     int
	x, b  []float64
	r     []float64
	work  []float64
	extra bool
	tol   float64
	act   []int
	st    []Stats
}

func refineInto(st []Stats, a *sparse.CSC, sys System, x, b []float64, opts Options) {
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 10
	}
	nrhs := len(st)
	if nrhs == 0 {
		return
	}
	n := len(b) / nrhs
	w := batch{a: a, sys: sys, n: n, x: x, b: b, extra: opts.ExtraPrecision, tol: opts.BerrTol, st: st}
	if w.tol <= 0 {
		w.tol = lu.Eps
	}
	w.multi, _ = sys.(multiSolver)
	nwork := n
	if w.extra {
		nwork = 2 * n
	}
	buf := make([]float64, n*nrhs+nwork)
	w.r, w.work = buf[:n*nrhs], buf[n*nrhs:]
	// The histories get their own slab: callers keep Stats.Berrs, and it
	// must not pin the residual block.
	stride := min(maxIter+1, historyCap)
	hist := make([]float64, nrhs*stride)
	w.act = make([]int, 0, nrhs)

	for v := range st {
		be := ResidualBerr(a, w.r[len(w.act)*n:], w.work, x[v*n:(v+1)*n], b[v*n:(v+1)*n], w.extra)
		st[v] = Stats{Berrs: append(hist[v*stride:v*stride:(v+1)*stride], be), FinalBerr: be}
		switch {
		case be <= w.tol:
			st[v].Converged = true
		case !math.IsNaN(be):
			w.act = append(w.act, v)
		}
	}
	for step := 1; len(w.act) > 0 && step <= maxIter; step++ {
		w.step()
		// Exactly the vectors this step corrected are at Steps == step.
		for v := range st {
			if st[v].Steps == step {
				st[v].Berrs = append(st[v].Berrs, st[v].FinalBerr)
			}
		}
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
	if m > 1 && w.multi != nil {
		w.multi.SolveMulti(w.r[:m*n], m)
	} else {
		for q := 0; q < m; q++ {
			w.sys.Solve(w.r[q*n : (q+1)*n]) //gesp:allocok a System without a blocked sweep (SMW, GEPP rung) owns its solve's allocations; *lu.Factors.Solve makes none
		}
	}
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
		case be > prev/2 || math.IsNaN(be):
			// Stagnation — berr failed to halve, the paper's second
			// test — or a poisoned iterate.
		default:
			w.act[k] = v
			k++
		}
	}
	w.act = w.act[:k]
}
