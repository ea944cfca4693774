package main

import (
	"fmt"
	"math"
	"time"

	"gesp/internal/core"
	"gesp/internal/equil"
	"gesp/internal/lu"
	"gesp/internal/matching"
	"gesp/internal/ordering"
	"gesp/internal/refine"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// batchRHS is the number of right-hand sides of the refactor round's
// SolveBatch; the serve layer's default batch cap.
const batchRHS = 16

// replays is how often a probe repeats each layer call; the metric is
// the median. The layers are deterministic compute, so three suffice.
const replays = 5

func noChildren() (float64, error) { return 0, nil }

// system is one linear system with the right-hand sides a workload
// solves against it.
type system struct {
	class int
	a     *sparse.CSC
	b     []float64
	bs    [][]float64 // batch right-hand sides (refactor workloads)
}

func newSystem(class int, a *sparse.CSC, seed int64, purpose int64, batch int) system {
	rng := stream(seed, purpose)
	s := system{class: class, a: a}
	s.b, _ = rhs(a, rng)
	for k := 0; k < batch; k++ {
		b, _ := rhs(a, rng)
		s.bs = append(s.bs, b)
	}
	return s
}

// ---- cold-solve -------------------------------------------------------

// setupColdSolve builds one system per class at the cold size. A round
// is, per class, core.New + Solve: the whole GESP pipeline from a
// matrix nobody has seen.
func setupColdSolve(cfg runConfig) (*session, error) {
	var systems []system
	for c := 0; c < numClasses; c++ {
		a := variant(pattern(c, cfg.sz.cold[c], 0), stream(cfg.seed, int64(10+c)))
		systems = append(systems, newSystem(c, a, cfg.seed, int64(20+c), 0))
	}
	// times[c] collects core's own phase clocks, for the cross-check
	// against the replayed spans.
	var times [numClasses][]core.StepTimes
	op := func(_ int, tr *tracer, id int64) opResult {
		r := opResult{kind: "round"}
		xs := make([][]float64, len(systems))
		root := tr.start(id, nil, "round")
		t0 := time.Now()
		for i, sys := range systems {
			name := classNames[sys.class]
			sp := tr.start(id, root, "core.new."+name)
			s, err := core.New(sys.a, core.DefaultOptions())
			sp.end()
			if err != nil {
				continue
			}
			sp = tr.start(id, root, "core.solve."+name)
			x, err := s.Solve(sys.b)
			sp.end()
			if err == nil {
				xs[i] = x
			}
			if tr != nil {
				times[sys.class] = append(times[sys.class], s.Stats().Times)
			}
		}
		r.ms = ms(time.Since(t0))
		root.end()
		for i, sys := range systems {
			r.attempted++
			if !accept(sys.a, xs[i], sys.b) {
				r.failed++
			}
		}
		return r
	}
	probe := func(tr *tracer, layer map[string]float64) error {
		worst := 0.0
		for _, sys := range systems {
			name := classNames[sys.class]
			for k := 0; k < replays; k++ {
				if err := replayNew(tr, sys, layer); err != nil {
					return fmt.Errorf("replaying core.New on %s: %w", name, err)
				}
			}
			spanMedian(tr, layer, "core.new_ms."+name, "core.new."+name)
			spanMedian(tr, layer, "core.solve_ms."+name, "core.solve."+name)
			layer["core.new_self_ms."+name] = median(tr.selfTimes("replay.core.new." + name))
			for _, ph := range []struct {
				metric, span string
				clock        func(core.StepTimes) time.Duration
			}{
				{"equil.equilibrate_ms", "equil.equilibrate", func(t core.StepTimes) time.Duration { return t.Equil }},
				{"matching.mc64_ms", "matching.mc64", func(t core.StepTimes) time.Duration { return t.RowPerm }},
				{"ordering.order_ms", "ordering.order", func(t core.StepTimes) time.Duration { return t.Order }},
				{"symbolic.factorize_ms", "symbolic.factorize", func(t core.StepTimes) time.Duration { return t.Symbolic }},
				{"lu.factorize_ms", "lu.factorize", func(t core.StepTimes) time.Duration { return t.Factor }},
			} {
				replayed := spanMedian(tr, layer, ph.metric+"."+name, ph.span+"."+name)
				var own []float64
				for _, t := range times[sys.class] {
					own = append(own, ms(ph.clock(t)))
				}
				// Phases under 5 % of the call are a few hundred
				// microseconds of clones and scalings that core clocks
				// inside the phase and the replay outside it.
				if o := median(own); o >= 0.05*layer["core.new_ms."+name] {
					worst = math.Max(worst, 100*math.Abs(replayed-o)/o)
				}
			}
			spanMedian(tr, layer, "lu.solve_ms."+name, "lu.solve."+name)
			spanMedian(tr, layer, "refine.refine_ms."+name, "refine.refine."+name)
		}
		layer["check.phase_agreement_pct"] = worst
		return nil
	}
	return &session{clients: 1, primary: "round", op: op, probe: probe, close: noChildren}, nil
}

// spanMedian stores the median duration of the named spans as a layer
// metric and returns it.
func spanMedian(tr *tracer, layer map[string]float64, metric, spanName string) float64 {
	m := median(tr.durations(spanName))
	layer[metric] = m
	return m
}

// replayNew repeats what core.New and Solve do with the public
// per-phase functions on the exact intermediates, one span per phase
// under a replay.core.new span whose self time is then the clones,
// permutations and scalings between the phases.
func replayNew(tr *tracer, sys system, layer map[string]float64) error {
	name := classNames[sys.class]
	opts := core.DefaultOptions()
	n := sys.a.Rows
	root := tr.start(0, nil, "replay.core.new."+name)
	work := sys.a.Clone()
	dR, dC := make([]float64, n), make([]float64, n)
	for i := range dR {
		dR[i], dC[i] = 1, 1
	}

	sp := tr.start(0, root, "equil.equilibrate."+name)
	eq, err := equil.Equilibrate(work)
	sp.end()
	if err != nil {
		return err
	}
	if eq.NeedsScaling() {
		eq.Apply(work)
		for i := range dR {
			dR[i] *= eq.R[i]
			dC[i] *= eq.C[i]
		}
	}

	sp = tr.start(0, root, "matching.mc64."+name)
	mc, err := matching.MaxProductMatching(work)
	sp.end()
	if err != nil {
		return err
	}
	work.ScaleRowsCols(mc.Dr, mc.Dc)
	for i := range dR {
		dR[i] *= mc.Dr[i]
		dC[i] *= mc.Dc[i]
	}
	work = work.PermuteRows(mc.RowPerm)

	sp = tr.start(0, root, "ordering.order."+name)
	pc := ordering.Order(work, opts.Ordering)
	sp.end()
	work = work.PermuteSym(pc)
	rowMap := sparse.ComposePerm(pc, mc.RowPerm)

	sp = tr.start(0, root, "symbolic.factorize."+name)
	sym, err := symbolic.Factorize(work, symbolic.Options{MaxSuper: opts.MaxSuper, Relax: opts.Relax})
	sp.end()
	if err != nil {
		return err
	}

	sp = tr.start(0, root, "lu.factorize."+name)
	fac, err := lu.Factorize(work, sym, lu.Options{ReplaceTinyPivot: opts.ReplaceTinyPivot})
	sp.end()
	root.end()
	if err != nil {
		return err
	}
	layer["symbolic.nnz_lu."+name] = float64(sym.FillLU())
	layer["symbolic.flops."+name] = float64(sym.Flops)
	layer["symbolic.avg_super."+name] = sym.AvgSupernode()
	layer["lu.tiny_pivots."+name] = float64(fac.TinyPivots)

	bh := make([]float64, n)
	for i, bi := range sys.b {
		bh[rowMap[i]] = dR[i] * bi
	}
	y, steps := replaySolve(tr, name, work, fac, bh)
	layer["refine.steps."+name] = float64(steps)
	x := make([]float64, n)
	for j := range x {
		x[j] = dC[j] * y[pc[j]]
	}
	if !accept(sys.a, x, sys.b) {
		return fmt.Errorf("the replayed pipeline's solution fails the oracle (berr %.3g)", backwardError(sys.a, x, sys.b))
	}
	return nil
}

// replaySolve times the triangular solve and the refinement loop on a
// permuted, scaled right-hand side, as Solver.Solve runs them.
func replaySolve(tr *tracer, name string, ap *sparse.CSC, fac *lu.Factors, bh []float64) (y []float64, steps int) {
	y = append([]float64(nil), bh...)
	sp := tr.start(0, nil, "lu.solve."+name)
	fac.Solve(y)
	sp.end()
	sp = tr.start(0, nil, "refine.refine."+name)
	st := refine.Refine(ap, fac, y, bh, refine.Options{})
	sp.end()
	return y, st.Steps
}

// ---- refactor-loop and refactor-par -----------------------------------

func setupRefactorLoop(cfg runConfig) (*session, error) {
	return setupRefactor(cfg, cfg.sz.refactor, 0)
}

// setupRefactorPar runs the refactor round at the cold sizes through
// Options.Workers=2: the DAG-scheduled supernodal factorization and the
// level-scheduled triangular solves.
func setupRefactorPar(cfg runConfig) (*session, error) {
	return setupRefactor(cfg, cfg.sz.cold, 2)
}

// setupRefactor analyses each class once and pre-generates its value
// variants. A round is, per class, the next variant through
// core.NewWithSymbolic, one Solve and one SolveBatch: factor and
// triangular solves, zero analysis.
func setupRefactor(cfg runConfig, size [numClasses]int, workers int) (*session, error) {
	opts := core.DefaultOptions()
	opts.Workers = workers
	suffix := ""
	if workers > 1 {
		suffix = "_par2"
	}
	type refactored struct {
		donor    *core.Solver
		variants []system
	}
	var classes []refactored
	for c := 0; c < numClasses; c++ {
		base := pattern(c, size[c], 0)
		donor, err := core.NewAnalysis(base, opts)
		if err != nil {
			return nil, fmt.Errorf("analysing %s: %w", classNames[c], err)
		}
		rc := refactored{donor: donor}
		for v := 0; v < cfg.sz.variants; v++ {
			a := variant(base, stream(cfg.seed, int64(100+10*c+v)))
			rc.variants = append(rc.variants, newSystem(c, a, cfg.seed, int64(200+10*c+v), batchRHS))
		}
		classes = append(classes, rc)
	}
	const batchSpan = "core.solve_batch16"

	next := 0
	op := func(_ int, tr *tracer, id int64) opResult {
		r := opResult{kind: "round"}
		v := next % cfg.sz.variants
		next++
		type answer struct {
			x  []float64
			xs [][]float64
		}
		got := make([]answer, len(classes))
		root := tr.start(id, nil, "round")
		t0 := time.Now()
		for i, rc := range classes {
			sys, name := rc.variants[v], classNames[i]
			sp := tr.start(id, root, "core.refactor"+suffix+"."+name)
			s, err := core.NewWithSymbolic(sys.a, rc.donor)
			sp.end()
			if err != nil {
				continue
			}
			sp = tr.start(id, root, "core.solve"+suffix+"."+name)
			x, err := s.Solve(sys.b)
			sp.end()
			if err == nil {
				got[i].x = x
			}
			sp = tr.start(id, root, batchSpan+"."+name)
			xs, err := s.SolveBatch(sys.bs)
			sp.end()
			if err == nil {
				got[i].xs = xs
			}
		}
		r.ms = ms(time.Since(t0))
		root.end()
		for i, rc := range classes {
			sys := rc.variants[v]
			r.attempted += 1 + len(sys.bs)
			if !accept(sys.a, got[i].x, sys.b) {
				r.failed++
			}
			for k, b := range sys.bs {
				if k >= len(got[i].xs) || !accept(sys.a, got[i].xs[k], b) {
					r.failed++
				}
			}
		}
		return r
	}

	probe := func(tr *tracer, layer map[string]float64) error {
		for i, rc := range classes {
			sys, name := rc.variants[0], classNames[i]
			par := spanMedian(tr, layer, "core.refactor"+suffix+"_ms."+name, "core.refactor"+suffix+"."+name)
			spanMedian(tr, layer, "core.solve"+suffix+"_ms."+name, "core.solve"+suffix+"."+name)
			spanMedian(tr, layer, batchSpan+"_ms."+name, batchSpan+"."+name)

			// The serial engine on the same matrix: the factor and solve
			// layers called directly on the exact intermediates.
			serial := rc.donor
			if workers > 1 {
				var err error
				if serial, err = core.NewAnalysis(sys.a, core.DefaultOptions()); err != nil {
					return err
				}
			}
			for k := 0; k < replays; k++ {
				sp := tr.start(0, nil, "replay.core.refactor."+name)
				s, err := core.NewWithSymbolic(sys.a, serial)
				sp.end()
				if err != nil {
					return err
				}
				if workers > 1 {
					sp = tr.start(0, nil, "replay.core.solve."+name)
					_, err = s.Solve(sys.b)
					sp.end()
					if err != nil {
						return err
					}
				}
				ap, sym := s.PermutedMatrix(), s.Symbolic()
				sp = tr.start(0, nil, "lu.factorize."+name)
				fac, err := lu.Factorize(ap, sym, lu.Options{ReplaceTinyPivot: true})
				sp.end()
				if err != nil {
					return err
				}
				layer["lu.tiny_pivots."+name] = float64(fac.TinyPivots)
				// Any vector of the right length times the sweeps; its
				// refinement count is that of a real right-hand side of
				// the permuted system.
				_, steps := replaySolve(tr, name, ap, fac, sys.b)
				layer["refine.steps."+name] = float64(steps)
			}
			fms := spanMedian(tr, layer, "lu.factorize_ms."+name, "lu.factorize."+name)
			if fms > 0 {
				layer["lu.factor_mflops."+name] = float64(rc.donor.Stats().Flops) / (fms * 1e3)
			}
			spanMedian(tr, layer, "lu.solve_ms."+name, "lu.solve."+name)
			spanMedian(tr, layer, "refine.refine_ms."+name, "refine.refine."+name)
			if workers > 1 {
				spanMedian(tr, layer, "core.solve_ms."+name, "replay.core.solve."+name)
				if ser := spanMedian(tr, layer, "core.refactor_ms."+name, "replay.core.refactor."+name); ser > 0 {
					layer["ratio.par2_over_serial."+name] = par / ser
				}
			}
		}
		return nil
	}
	return &session{clients: 1, primary: "round", op: op, probe: probe, close: noChildren}, nil
}
