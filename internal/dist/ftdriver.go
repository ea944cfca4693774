package dist

import (
	"fmt"
	"sync/atomic"

	"gesp/internal/mpisim"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// FTOptions configure the fault-tolerant distributed driver.
type FTOptions struct {
	Options
	// Fault is the chaos schedule injected into the simulated machine
	// (nil = fault-free). The plan is consumed: its one-shot events
	// (kills, stalls, the drop budget) fire at most once across all
	// restart attempts, which is what lets recovery converge.
	Fault *mpisim.FaultPlan
	// CheckpointEvery is the panel interval between coordinated
	// checkpoints (default 4).
	CheckpointEvery int
	// MaxRestarts bounds recovery attempts before giving up (default 3).
	MaxRestarts int
}

// Recovery reports what fault tolerance cost across all attempts.
type Recovery struct {
	// Attempts is the number of worlds run (1 = no failure); Restarts is
	// Attempts-1.
	Attempts int
	Restarts int
	// Checkpoints committed and their total serialized size.
	Checkpoints     int
	CheckpointBytes int
	// Failures holds the watchdog report of every failed attempt, with
	// Phase filled in ("factorize" or "solve").
	Failures []mpisim.FailureReport
	// DetectLatency is the largest virtual fault-to-detection latency.
	DetectLatency float64
	// ReplayedFlops and ExtraMessages count work and traffic performed
	// in failed attempts beyond the checkpoint the next attempt resumed
	// from — the work the fault destroyed and recovery re-executes.
	ReplayedFlops int64
	ExtraMessages int64
	// AddedSimTime is the virtual time recovery added: for each failure,
	// detection time minus the resumed checkpoint's clock.
	AddedSimTime float64
	// Fingerprint of the final assembled factors (compare against a
	// fault-free run to verify bit-identical recovery).
	Fingerprint uint64
	// FinishSimTime is the virtual time the final successful attempt
	// completed at (max rank clock). Restored clocks resume from the
	// failure detection time, so this is the end-to-end simulated
	// runtime including every recovery delay — compare against a
	// fault-free run's FinishSimTime for total overhead.
	FinishSimTime float64
}

// SolveFT is Solve with fault tolerance: it runs the distributed
// factorization and solve under an optional chaos plan, checkpointing
// completed panel frontiers, and on a watchdog-detected failure
// restarts a fresh world from the last committed checkpoint, replaying
// only the lost tail of the elimination DAG. The recovered
// factorization is bit-identical to a fault-free run (same
// lu.Factors.Fingerprint), because the cut is message-free and the
// block kernels are deterministic.
//
// Pipelining is forcibly disabled: the checkpoint consistency argument
// needs the barrier-aligned non-pipelined schedule.
func SolveFT(a *sparse.CSC, sym *symbolic.Result, b []float64, opts FTOptions) (*Result, *Recovery, error) {
	if opts.Procs <= 0 {
		opts.Procs = 4
	}
	opts.Pipeline = false
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 4
	}
	if opts.MaxRestarts <= 0 {
		opts.MaxRestarts = 3
	}
	model := mpisim.T3E900()
	if opts.Model != nil {
		model = *opts.Model
	}
	grid := mpisim.NewGrid(opts.Procs)
	if opts.Grid != nil {
		grid = *opts.Grid
	}
	st := BuildStructure(sym)
	thresh := defaultThreshold(a, opts.Threshold)

	rec := &Recovery{}
	var ck *Checkpoint // last committed checkpoint across attempts
	resumeAt := 0.0    // virtual time the next attempt resumes at

	for {
		rec.Attempts++
		world := mpisim.NewWorld(opts.Procs, model)
		if opts.Fault != nil {
			world.InstallFaults(opts.Fault)
		}
		coll := newCkptCollector(opts.Procs)
		out := make([]float64, sym.N)
		snaps := make([][3]mpisim.Snapshot, opts.Procs)
		tinies := make([]int, opts.Procs)
		fails := make([]bool, opts.Procs)
		restoreErrs := make([]error, opts.Procs)
		blockSets := make([]map[int]*Block, opts.Procs)
		var factorDone atomic.Bool

		world.Run(func(r *mpisim.Rank) {
			myR, myC := grid.Coords(r.ID())
			w := &worker{
				r: r, g: grid, st: st, opts: opts.Options,
				myR: myR, myC: myC,
				thresh:    thresh,
				panelDone: make([]bool, st.N),
				ckptEvery: opts.CheckpointEvery,
			}
			own := func(i, j int) bool { return grid.OwnerOfBlock(i, j) == r.ID() }
			if ck != nil {
				blocks, err := restoreBlocks(st, a, own, ck.Blocks[r.ID()])
				if err != nil {
					restoreErrs[r.ID()] = err
					return
				}
				w.blocks = blocks
				w.start = ck.Frontier
				w.tiny = ck.Tinies[r.ID()]
				for k := 0; k < ck.Frontier && k < st.N; k++ {
					w.panelDone[k] = true
				}
				r.Restore(ck.Snaps[r.ID()], resumeAt)
			} else {
				w.blocks = st.ScatterA(a, own)
				// Restart from scratch (failure before the first commit):
				// clocks still resume at the detection time so the
				// finish time stays an end-to-end measurement.
				if resumeAt > 0 {
					r.Restore(mpisim.Snapshot{}, resumeAt)
				}
			}
			w.onCkpt = func(k int) {
				coll.save(r.ID(), k, r.Snap(), encodeBlocks(w.blocks), w.tiny)
			}

			r.Barrier()
			snaps[r.ID()][0] = r.Snap()
			w.factorize()
			r.Barrier()
			factorDone.Store(true)
			snaps[r.ID()][1] = r.Snap()

			xs := w.lowerSolve(b)
			r.Barrier()
			sol := w.upperSolve(xs)
			r.Barrier()
			snaps[r.ID()][2] = r.Snap()

			w.gatherX(sol, out)
			r.Barrier()
			tinies[r.ID()] = w.tiny
			fails[r.ID()] = w.zeroPivot
			blockSets[r.ID()] = w.blocks
		})

		for i, err := range restoreErrs {
			if err != nil {
				return nil, rec, fmt.Errorf("dist: rank %d checkpoint restore: %w", i, err)
			}
		}
		rec.Checkpoints += coll.commits
		rec.CheckpointBytes += coll.bytes

		if f := world.Failure(); f != nil {
			fr := *f
			fr.Phase = "factorize"
			if factorDone.Load() {
				fr.Phase = "solve"
			}
			rec.Failures = append(rec.Failures, fr)
			if lat := fr.DetectedAt - fr.FaultTime; lat > rec.DetectLatency {
				rec.DetectLatency = lat
			}
			// The attempt's work past the checkpoint the next attempt
			// resumes from is lost and will be replayed.
			next := coll.committed
			if next == nil {
				next = ck
			}
			after := world.Snapshots()
			baseClock := 0.0
			for i := range after {
				var bf, bm int64
				if next != nil {
					bf, bm = next.Snaps[i].Flops, next.Snaps[i].Msgs
				}
				rec.ReplayedFlops += after[i].Flops - bf
				rec.ExtraMessages += after[i].Msgs - bm
			}
			if next != nil {
				baseClock = next.MaxClock()
			}
			if d := fr.DetectedAt - baseClock; d > 0 {
				rec.AddedSimTime += d
			}
			if rec.Restarts >= opts.MaxRestarts {
				return nil, rec, fmt.Errorf("dist: unrecovered after %d restarts: %s rank %d in %s phase: %w",
					rec.Restarts, fr.Kind, fr.Rank, fr.Phase, fr.Err)
			}
			rec.Restarts++
			ck = next
			resumeAt = fr.DetectedAt
			continue
		}

		res := &Result{X: out, Grid: grid, SupernodeAv: sym.AvgSupernode()}
		before := make([]mpisim.Snapshot, opts.Procs)
		mid := make([]mpisim.Snapshot, opts.Procs)
		after := make([]mpisim.Snapshot, opts.Procs)
		for i := 0; i < opts.Procs; i++ {
			before[i] = snaps[i][0]
			mid[i] = snaps[i][1]
			after[i] = snaps[i][2]
			res.TinyPivots += tinies[i]
		}
		fs := mpisim.PhaseStats(before, mid)
		ss := mpisim.PhaseStats(mid, after)
		res.Factor = PhaseStats{
			SimTime: fs.Time, Mflops: fs.Mflops(), CommFraction: fs.CommFraction,
			LoadBalance: fs.LoadBalance, Messages: fs.Messages, Volume: fs.Volume,
		}
		res.Solve = PhaseStats{
			SimTime: ss.Time, Mflops: ss.Mflops(), CommFraction: ss.CommFraction,
			LoadBalance: ss.LoadBalance, Messages: ss.Messages, Volume: ss.Volume,
		}
		for i := range fails {
			if fails[i] {
				return res, rec, fmt.Errorf("%w (rank %d)", ErrZeroPivotDist, i)
			}
		}
		for _, s := range world.Snapshots() {
			if s.Clock > rec.FinishSimTime {
				rec.FinishSimTime = s.Clock
			}
		}
		// The serial fingerprint of the assembled factors is what
		// bit-identical recovery is verified against.
		rec.Fingerprint = AssembleFactors(a, st, blockSets).Fingerprint()
		return res, rec, nil
	}
}
