package main

import (
	"fmt"
	"time"

	"gesp/internal/core"
	"gesp/internal/dist"
)

// distProcs is the processor grid sweep of one dist-sim round; the
// per-layer counts are reported at layerProcs.
var distProcs = []int{4, 16, 64}

const layerProcs = 16

// setupDistSim analyses a mesh and a fill matrix once. A round is one
// DistSolve per matrix and processor count on the simulated machine
// with the paper's two optimisations on. The simulator's virtual
// times and message counts are counts, not host measurements; the
// round's host wall time measures the simulator itself.
func setupDistSim(cfg runConfig) (*session, error) {
	type target struct {
		name   string
		solver *core.Solver
		b      []float64
		xTrue  []float64
	}
	var targets []target
	for i, c := range []int{mesh, fill} {
		a := variant(pattern(c, cfg.sz.dist[i], 1), stream(cfg.seed, int64(300+c)))
		s, err := core.NewAnalysis(a, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("analysing %s: %w", classNames[c], err)
		}
		b, xTrue := rhs(a, stream(cfg.seed, int64(310+c)))
		targets = append(targets, target{classNames[c], s, b, xTrue})
	}
	opts := dist.Options{Pipeline: true, EDAGPrune: true}

	// Per traced round: the virtual times summed over the grid, and the
	// layerProcs results per matrix.
	var simFactor, simSolve []float64
	at16 := map[string][]*dist.Result{}

	op := func(_ int, tr *tracer, id int64) opResult {
		r := opResult{kind: "round"}
		xs := make([][]float64, 0, len(targets)*len(distProcs))
		var sumF, sumS float64
		root := tr.start(id, nil, "round")
		t0 := time.Now()
		for _, t := range targets {
			for _, p := range distProcs {
				o := opts
				o.Procs = p
				sp := tr.start(id, root, fmt.Sprintf("core.dist_solve.%s.p%d", t.name, p))
				x, res, err := t.solver.DistSolve(t.b, o)
				sp.end()
				if err != nil {
					x = nil
				} else {
					sumF += res.Factor.SimTime
					sumS += res.Solve.SimTime
					if tr != nil && p == layerProcs {
						at16[t.name] = append(at16[t.name], res)
					}
				}
				xs = append(xs, x)
			}
		}
		r.ms = ms(time.Since(t0))
		root.end()
		if tr != nil {
			simFactor = append(simFactor, sumF)
			simSolve = append(simSolve, sumS)
		}
		for i, x := range xs {
			r.attempted++
			if !acceptForward(x, targets[i/len(distProcs)].xTrue) {
				r.failed++
			}
		}
		return r
	}

	probe := func(tr *tracer, layer map[string]float64) error {
		// The factor's virtual time repeats bit for bit; the solve's
		// wanders a few percent at P>=16, hence the median.
		layer["dist.sim_factor_s"] = median(simFactor)
		layer["dist.sim_solve_s"] = median(simSolve)
		for _, t := range targets {
			var msgsF, bytesF, commF, balF, msgsS, commS, wall, simOn []float64
			for _, res := range at16[t.name] {
				msgsF = append(msgsF, float64(res.Factor.Messages))
				bytesF = append(bytesF, float64(res.Factor.Volume))
				commF = append(commF, res.Factor.CommFraction)
				balF = append(balF, res.Factor.LoadBalance)
				msgsS = append(msgsS, float64(res.Solve.Messages))
				commS = append(commS, res.Solve.CommFraction)
				wall = append(wall, ms(res.Factor.Wall+res.Solve.Wall))
				simOn = append(simOn, res.Factor.SimTime)
			}
			layer["dist.factor_msgs."+t.name] = median(msgsF)
			layer["dist.factor_bytes."+t.name] = median(bytesF)
			layer["dist.factor_comm_frac."+t.name] = median(commF)
			layer["dist.factor_load_balance."+t.name] = median(balF)
			layer["dist.solve_msgs."+t.name] = median(msgsS)
			layer["dist.solve_comm_frac."+t.name] = median(commS)
			layer["mpisim.wall_ms."+t.name] = median(wall)

			o := opts
			o.Procs, o.Pipeline = layerProcs, false
			sp := tr.start(0, nil, "probe.dist_solve.nopipeline."+t.name)
			_, res, err := t.solver.DistSolve(t.b, o)
			sp.end()
			if err != nil {
				return fmt.Errorf("unpipelined DistSolve on %s: %w", t.name, err)
			}
			if on := median(simOn); on > 0 {
				layer["dist.pipeline_gain."+t.name] = res.Factor.SimTime / on
			}
		}
		return nil
	}
	return &session{clients: 1, primary: "round", op: op, probe: probe, close: noChildren}, nil
}
