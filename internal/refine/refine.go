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
	"math/bits"
	"sync"

	"gesp/internal/kernels"
	"gesp/internal/lu"
	"gesp/internal/sparse"
)

// System is anything that can apply M⁻¹ and M⁻ᵀ in place; *lu.Factors and
// *SMWSolver both satisfy it.
type System interface {
	Solve(x []float64)
	SolveT(x []float64)
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
// from one pass over A: kernels.ResidualBerr on a's columns. Rows with a
// zero denominator and zero residual contribute nothing; a nonzero
// residual over a zero denominator, or one that overflowed, yields +Inf;
// a NaN in any row yields NaN. extra accumulates A·x in compensated
// precision with FMA-based error-free transformations. work is scratch
// of n floats, 2n with extra; on return work[:n] holds |A|·|x|. Nothing
// is allocated.
//
//gesp:hotpath
func ResidualBerr(a *sparse.CSC, r, work, x, b []float64, extra bool) float64 {
	return kernels.ResidualBerr(a.ColPtr, a.RowInd, a.Val, r, work, x, b, extra)
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
	ws.vector(st[:], a, sys, x, b, opts)
	return st[0]
}

// RefineMulti refines the nrhs solutions packed in x (vector v occupies
// x[v*n : (v+1)*n], the lu.Factors.SolveMulti layout; b likewise) as one
// batch, kernels.Lanes vectors to a tile: every step makes one residual
// pass over A and one sweep per tile for all its vectors still refining.
// Termination is decided per vector by Refine's rules, and because the
// tile kernels give every lane the bits of the single-vector ones, each
// vector's iterates and Stats are exactly those of refining it alone.
func RefineMulti(a *sparse.CSC, sys System, x, b []float64, nrhs int, opts Options) []Stats {
	st := make([]Stats, nrhs)
	var ws Workspace
	ws.Refine(st, a, sys, x, b, opts)
	return st
}

// tileSolver is the sweep a System may offer besides Solve: M⁻¹ applied
// in place to every lane of a tile (kernels.PackTile's layout), each lane
// bitwise what Solve gives that vector alone (*lu.Factors.SolveTile).
type tileSolver interface {
	SolveTile(t []float64)
}

// historyCap is how many berr values per vector are preallocated; the
// paper's Figure 3 has no matrix above 5 steps and MaxIter defaults
// to 10, so longer histories (which grow by append) are rare.
const historyCap = 16

// Workspace is the scratch of a refinement: a single vector's residual
// and the berr histories. Refine and RefineMulti use a fresh one per
// call; a caller that refines again and again can keep one, which
// allocates nothing once it has grown to the widest batch. The Berrs of
// the Stats it fills are then its own storage, valid until its next use.
// A batch's tiles are not kept in it but borrowed from tilePool for the
// call, so that a fresh Workspace per batch (core, RefineMulti) neither
// allocates nor clears them, and no Stats.Berrs is pooled storage.
// A Workspace is not safe for concurrent use.
type Workspace struct {
	buf, hist []float64
}

// tiles is the storage of a batch's tiles, held by tilePool between
// batches.
type tiles struct{ buf []float64 }

// tilePool lends batches their tiles.
var tilePool = sync.Pool{New: func() any { return new(tiles) }}

// running is the Exit of a vector still refining; every vector has its
// own exit by the time Refine returns.
const running Exit = -1

// Refine is RefineMulti on the len(st) solutions packed in x, writing
// vector v's outcome to st[v]. A single vector is refined on its own,
// with ResidualBerr and Solve; two or more run in tiles.
func (ws *Workspace) Refine(st []Stats, a *sparse.CSC, sys System, x, b []float64, opts Options) {
	switch len(st) {
	case 0:
	case 1:
		ws.vector(st, a, sys, x, b, opts)
	default:
		ws.tiled(st, a, sys, x, b, opts, false)
	}
}

// SolveRefine is Refine from M⁻¹b: it overwrites the len(st) vectors
// packed in x with sys applied to those of b, then refines them, all in
// tiles: b is packed once, the initial sweep runs there and each x is
// unpacked once, when it stops. It is meant for batches; a single vector
// is cheaper swept with Solve and refined with Refine.
func (ws *Workspace) SolveRefine(st []Stats, a *sparse.CSC, sys System, x, b []float64, opts Options) {
	if len(st) > 0 {
		ws.tiled(st, a, sys, x, b, opts, true)
	}
}

// tiled runs the refinement of the len(st) vectors in x in tiles
// borrowed from tilePool, with solve from M⁻¹b.
func (ws *Workspace) tiled(st []Stats, a *sparse.CSC, sys System, x, b []float64, opts Options, solve bool) {
	t := tilePool.Get().(*tiles)
	w := newBatch(t, st, a, sys, x, b, ws.start(st, opts), opts.ExtraPrecision)
	w.run(solve, opts.Cancel)
	tilePool.Put(t)
}

// start readies st for a refinement under opts and returns its rule.
// The histories get their own slab: callers keep Stats.Berrs, and it
// must not pin the tiles.
func (ws *Workspace) start(st []Stats, opts Options) rule {
	u := rule{maxIter: opts.MaxIter, tol: opts.BerrTol, patient: opts.Patient}
	if u.maxIter <= 0 {
		u.maxIter = 10
	}
	if u.tol <= 0 {
		u.tol = lu.Eps
	}
	stride := min(u.maxIter+1, historyCap)
	hist := grow(&ws.hist, len(st)*stride)
	for v := range st {
		st[v] = Stats{Berrs: hist[v*stride : v*stride : (v+1)*stride], Exit: running}
	}
	return u
}

// rule is a refinement's termination rule and step bound.
type rule struct {
	maxIter int
	tol     float64
	patient bool
}

// record appends be to s's history — the initial berr when the history
// is empty, else the berr after one more correction — and reports
// whether the vector refines on; when it does not, s.Exit says why.
func (u *rule) record(s *Stats, be float64) (refining bool) {
	prev := math.Inf(1)
	if len(s.Berrs) > 0 {
		prev = s.FinalBerr
		s.Steps++
	}
	s.Berrs = append(s.Berrs, be) //gesp:allocok only a history past historyCap grows, and MaxIter < historyCap never does
	s.FinalBerr = be
	if exit, stop := Stop(be, prev, u.tol, u.patient); stop {
		s.Exit, s.Converged = exit, exit == ExitConverged
		return false
	}
	return true
}

// vector is the loop on the single vector of st: per step one Solve and
// one fused residual/berr pass.
func (ws *Workspace) vector(st []Stats, a *sparse.CSC, sys System, x, b []float64, opts Options) {
	u, s := ws.start(st, opts), &st[0]
	n, extra := len(b), opts.ExtraPrecision
	nwork := n
	if extra {
		nwork = 2 * n
	}
	buf := grow(&ws.buf, n+nwork)
	r, work := buf[:n], buf[n:]
	refining := u.record(s, ResidualBerr(a, r, work, x, b, extra))
	for refining && s.Steps < u.maxIter {
		if opts.Cancel != nil && opts.Cancel() {
			s.Exit = ExitCancelled
			return
		}
		sys.Solve(r)
		for i, d := range r {
			x[i] += d
		}
		refining = u.record(s, ResidualBerr(a, r, work, x, b, extra))
	}
	if refining {
		s.Exit = ExitMaxIter
	}
}

// grow returns (*s)[:n], reallocating *s when it is too short.
func grow[T any](s *[]T, n int) []T {
	if cap(*s) < n {
		*s = make([]T, n)
	}
	return (*s)[:n]
}

// batch is the state of a refinement of two or more vectors, kernels.Lanes
// to a tile: tile k holds vectors k·Lanes … k·Lanes+Lanes-1, lane l being
// vector k·Lanes+l, as three tiles, the iterate X, the right-hand side B
// and the residual R, which each step sweeps in place into the
// correction. Lanes past the last vector, and the lanes of vectors that
// stopped (whose x was unpacked then), mirror a lane still refining
// (kernels.MirrorLanes), so they cost nothing but their share of the
// tile's passes.
type batch struct {
	a       *sparse.CSC
	sys     System
	ts      tileSolver // nil: sys solves lane by lane
	u       rule
	extra   bool // compensated residuals
	st      []Stats
	n       int
	x, b    []float64 // the caller's vectors, packed with stride n
	xt, bt  []float64 // the X and B tiles, tile k at [k·Lanes·n, (k+1)·Lanes·n)
	rt      []float64 // the R tiles
	d, work []float64 // the residual pass's |A|·|X| and scratch tiles
	vec     []float64 // one vector, for a sweep lane by lane
}

// newBatch cuts t for a refinement of the len(st) vectors.
func newBatch(t *tiles, st []Stats, a *sparse.CSC, sys System, x, b []float64, u rule, extra bool) batch {
	n := len(b) / len(st)
	tn := kernels.Lanes * n
	g := (len(st) + kernels.Lanes - 1) / kernels.Lanes
	w := batch{a: a, sys: sys, u: u, extra: extra, st: st, n: n, x: x, b: b}
	w.ts, _ = sys.(tileSolver)
	buf := grow(&t.buf, (3*g+2)*tn+n)
	w.xt, w.bt, w.rt = buf[:g*tn], buf[g*tn:2*g*tn], buf[2*g*tn:3*g*tn]
	w.d, w.work, w.vec = buf[3*g*tn:(3*g+1)*tn], buf[(3*g+1)*tn:(3*g+2)*tn], buf[(3*g+2)*tn:]
	return w
}

// tile returns tile k's X, B and R, its first vector and how many it
// holds.
func (w *batch) tile(k int) (xt, bt, rt []float64, v0, m int) {
	tn := kernels.Lanes * w.n
	v0 = k * kernels.Lanes
	m = min(kernels.Lanes, len(w.st)-v0)
	return w.xt[k*tn : (k+1)*tn], w.bt[k*tn : (k+1)*tn], w.rt[k*tn : (k+1)*tn], v0, m
}

// live returns the lanes of tile k whose vectors are still refining.
func (w *batch) live(k int) uint8 {
	var live uint8
	v0 := k * kernels.Lanes
	for l, s := range w.st[v0:min(v0+kernels.Lanes, len(w.st))] {
		if s.Exit == running {
			live |= 1 << l
		}
	}
	return live
}

// run refines the batch: the tiles are packed (and, with solve, X swept
// from B), then every step, cancel permitting, sweeps each tile's R,
// adds it to X and measures the new residual, until every vector has
// stopped.
func (w *batch) run(solve bool, cancel func() bool) {
	n, ntiles := w.n, (len(w.st)+kernels.Lanes-1)/kernels.Lanes
	for k := 0; k < ntiles; k++ {
		xt, bt, _, v0, m := w.tile(k)
		kernels.PackTile(bt, w.b[v0*n:(v0+m)*n], n, m)
		if solve {
			copy(xt, bt)
			w.sweep(xt, 1<<m-1)
		} else {
			kernels.PackTile(xt, w.x[v0*n:(v0+m)*n], n, m)
		}
		w.measure(k)
	}
	for step := 1; step <= w.u.maxIter; step++ {
		refining := false
		for k := 0; k < ntiles && !refining; k++ {
			refining = w.live(k) != 0
		}
		if !refining {
			return
		}
		if cancel != nil && cancel() {
			w.finish(ExitCancelled)
			return
		}
		for k := 0; k < ntiles; k++ {
			live := w.live(k)
			if live == 0 {
				continue
			}
			xt, _, rt, _, _ := w.tile(k)
			w.sweep(rt, live)
			for i, c := range rt {
				xt[i] += c
			}
			w.measure(k)
		}
	}
	w.finish(ExitMaxIter)
}

// sweep applies M⁻¹ to the lanes live of the tile t: the tile sweep when
// sys has one (every lane) and the tile is not kernels.Lanewise, else
// Solve lane by lane, the other lanes then mirroring the first live one
// unless the tile is Lanewise. A Lanewise tile stays so, since lanes
// only stop, and then no tile kernel reads an idle lane again.
//
//gesp:hotpath
func (w *batch) sweep(t []float64, live uint8) {
	one := kernels.Lanewise(live)
	if w.ts != nil && !one {
		w.ts.SolveTile(t)
		return
	}
	for l := 0; l < kernels.Lanes; l++ {
		if live&(1<<l) != 0 {
			kernels.UnpackLane(w.vec, t, w.n, l)
			w.sys.Solve(w.vec) //gesp:allocok a System without a tile sweep (SMW, GEPP rung) owns its solve's allocations; the factors' Solve makes none
			kernels.PackLane(t, w.vec, w.n, l)
		}
	}
	if live != 1<<kernels.Lanes-1 && !one {
		kernels.MirrorLanes(t, w.n, bits.TrailingZeros8(live), ^live)
	}
}

// measure runs the residual pass over tile k and records each refining
// vector's berr. A vector that stops has its x unpacked. Unless the tile
// is kernels.Lanewise, every lane not refining then mirrors the lowest
// one that is: its X and B from the stop on, and its R after every pass
// (the pass may skip idle lanes), so that it always holds that lane's
// values.
//
//gesp:hotpath
func (w *batch) measure(k int) {
	a, n := w.a, w.n
	xt, bt, rt, v0, m := w.tile(k)
	var be [kernels.Lanes]float64
	kernels.ResidualTile(rt, w.d, w.work, n, a.ColPtr, a.RowInd, a.Val, xt, bt, w.live(k), w.extra, &be)
	stopped := false
	for l := 0; l < m; l++ {
		if s := &w.st[v0+l]; s.Exit == running && !w.u.record(s, be[l]) {
			kernels.UnpackLane(w.x[(v0+l)*n:(v0+l+1)*n], xt, n, l)
			stopped = true
		}
	}
	if live := w.live(k); live != 0 && live != 1<<kernels.Lanes-1 && !kernels.Lanewise(live) {
		src := bits.TrailingZeros8(live)
		if stopped {
			kernels.MirrorLanes(xt, n, src, ^live)
			kernels.MirrorLanes(bt, n, src, ^live)
		}
		kernels.MirrorLanes(rt, n, src, ^live)
	}
}

// finish gives every vector still refining the exit exit and unpacks its
// x.
func (w *batch) finish(exit Exit) {
	for v := range w.st {
		if s := &w.st[v]; s.Exit == running {
			s.Exit = exit
			k, l := v/kernels.Lanes, v%kernels.Lanes
			xt, _, _, _, _ := w.tile(k)
			kernels.UnpackLane(w.x[v*w.n:(v+1)*w.n], xt, w.n, l)
		}
	}
}

// Stop is step (4)'s termination rule for a vector whose berr is be
// after a correction from berr prev (+Inf before the first correction):
// stop converged when be ≤ tol; stop on a NaN or +Inf be; stop when be
// grew (diverge) or failed to halve — the paper's stagnation test — or,
// with patient, failed to decrease at all (stall). stop false means
// refine on; exit says which rule fired.
func Stop(be, prev, tol float64, patient bool) (exit Exit, stop bool) {
	switch {
	case be <= tol:
		return ExitConverged, true
	case math.IsNaN(be) || math.IsInf(be, 1):
		return ExitNonFinite, true
	case be > prev:
		return ExitDiverge, true
	case patient && be >= prev, !patient && be > prev/2:
		return ExitStall, true
	}
	return 0, false
}
