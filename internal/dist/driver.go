package dist

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"gesp/internal/lu"
	"gesp/internal/mpisim"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// PhaseStats reports one phase (factorization or solve) of a distributed
// run in the simulator's virtual machine model.
type PhaseStats struct {
	// SimTime is the simulated parallel runtime in seconds on the
	// modelled machine (Tables 3 and 4 report this).
	SimTime float64
	// Mflops is the simulated aggregate megaflop rate.
	Mflops float64
	// CommFraction is the fraction of simulated time spent communicating
	// (Table 5).
	CommFraction float64
	// LoadBalance is the paper's factor B = avg workload / max workload.
	LoadBalance float64
	// Messages and Volume count point-to-point traffic.
	Messages int64
	Volume   int64
	// Wall is the real elapsed time of the phase on the host.
	Wall time.Duration
}

// Result of a distributed factorization + solve.
type Result struct {
	X           []float64
	Grid        mpisim.Grid
	Factor      PhaseStats
	Solve       PhaseStats
	TinyPivots  int
	SupernodeAv float64
}

// ErrZeroPivotDist mirrors the serial zero-pivot failure.
var ErrZeroPivotDist = errors.New("dist: zero pivot with replacement disabled")

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

// Solve factors the (already permuted and scaled) matrix a with the
// distributed GESP algorithm and solves a·x = b. The symbolic structure
// must come from symbolic.Factorize on the same matrix.
func Solve(a *sparse.CSC, sym *symbolic.Result, b []float64, opts Options) (*Result, error) {
	o, err := run(job{a: a, sym: sym, bs: [][]float64{b}, opts: opts}) //gesp:wallclock run's Wall stats are reporting-only; they never feed the virtual clock
	return o.res, err
}

// SolveMulti factors once and solves several right-hand sides, the
// amortization scenario the paper's §5 discusses ("will probably depend
// on the number of right-hand sides"). The Solve phase statistics cover
// all right-hand sides together.
func SolveMulti(a *sparse.CSC, sym *symbolic.Result, bs [][]float64, opts Options) (*Result, [][]float64, error) {
	o, err := run(job{a: a, sym: sym, bs: bs, opts: opts}) //gesp:wallclock run's Wall stats are reporting-only; they never feed the virtual clock
	return o.res, o.xs, err
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
	opts.Pipeline = false
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 4
	}
	if opts.MaxRestarts <= 0 {
		opts.MaxRestarts = 3
	}
	o, err := run(job{ //gesp:wallclock run's Wall stats are reporting-only; they never feed the virtual clock
		a: a, sym: sym, bs: [][]float64{b}, opts: opts.Options,
		fault: opts.Fault, ckptEvery: opts.CheckpointEvery, maxRestarts: opts.MaxRestarts,
	})
	if err == nil {
		// The serial fingerprint of the assembled factors is what
		// bit-identical recovery is verified against.
		o.rec.Fingerprint = mergeGrids(o.grids).Factors(a).Fingerprint()
	}
	return o.res, o.rec, err
}

// SolveFrom1D is Solve with the paper's distributed-input interface: the
// matrix enters 1-D row-distributed (slices[rank] gives each rank's
// rows), is redistributed to the 2-D block-cyclic layout with measured
// communication, then factored and solved as usual. The redistribution
// phase statistics are returned alongside.
func SolveFrom1D(a *sparse.CSC, sym *symbolic.Result, b []float64, slices []RowSlice, opts Options) (*Result, PhaseStats, error) {
	if opts.Procs <= 0 {
		opts.Procs = len(slices)
	}
	o, err := run(job{a: a, sym: sym, bs: [][]float64{b}, opts: opts, slices: slices}) //gesp:wallclock run's Wall stats are reporting-only; they never feed the virtual clock
	return o.res, o.redist, err
}

// job is one request to the distributed driver. The zero values of the
// fields after opts give the plain run; each entry point sets the ones
// its case needs.
type job struct {
	a    *sparse.CSC
	sym  *symbolic.Result
	bs   [][]float64
	opts Options
	// slices non-nil: a arrives 1-D row-distributed and a measured
	// redistribution phase runs in front of the factorization.
	slices []RowSlice
	// fault is the chaos plan (nil = fault-free); ckptEvery > 0 cuts a
	// coordinated checkpoint every that many panels (it needs
	// opts.Pipeline off); maxRestarts bounds the attempts after a
	// watchdog report (0 = fail on the first).
	fault       *mpisim.FaultPlan
	ckptEvery   int
	maxRestarts int
}

// outcome is everything a job produces. res.X is the first solution
// (nil when the job has no right-hand side).
type outcome struct {
	res    *Result
	xs     [][]float64
	redist PhaseStats
	rec    *Recovery
	grids  []*BlockGrid // grids[i] holds rank i's factored blocks
}

// run is the one distributed driver: it sets up a world, optionally
// restores it from the last committed checkpoint or redistributes the
// 1-D input, factors, solves every right-hand side and gathers the
// solutions at rank 0 — and on a watchdog-detected failure runs a fresh
// world from the last checkpoint, up to j.maxRestarts times. The
// returned outcome is never nil; on an unrecovered failure only its
// rec is set.
//
// The Wall fields of the PhaseStats are genuine host wall-clock
// measurements reported alongside the simulated times; they never feed
// the virtual clock or any simulated result.
//
//gesp:wallclock
func run(j job) (*outcome, error) {
	a, sym, opts := j.a, j.sym, j.opts
	if opts.Procs <= 0 {
		opts.Procs = 4
	}
	P := opts.Procs
	model := mpisim.T3E900()
	if opts.Model != nil {
		model = *opts.Model
	}
	grid := mpisim.NewGrid(P)
	if opts.Grid != nil {
		grid = *opts.Grid
	}
	st := BuildStructure(sym)
	thresh := lu.TinyPivotThreshold(a.Norm1(), opts.Threshold)

	out := &outcome{rec: &Recovery{}}
	rec := out.rec
	var ck *Checkpoint // last committed checkpoint across attempts
	resumeAt := 0.0    // virtual time the next attempt resumes at

	for {
		rec.Attempts++
		world := mpisim.NewWorld(P, model)
		if j.fault != nil {
			world.InstallFaults(j.fault)
		}
		coll := newCkptCollector(P)
		xs := make([][]float64, len(j.bs))
		for q := range xs {
			xs[q] = make([]float64, sym.N)
		}
		// snaps[q][i] is rank i's counters at phase boundary q: start,
		// redistributed, factored, solved. stamps are rank 0's host times
		// at the same boundaries.
		var snaps [4][]mpisim.Snapshot
		for q := range snaps {
			snaps[q] = make([]mpisim.Snapshot, P)
		}
		var stamps [4]time.Time
		workers := make([]*worker, P)
		restoreErrs := make([]error, P)
		var factorDone atomic.Bool

		world.Run(func(r *mpisim.Rank) {
			id := r.ID()
			mark := func(q int) {
				snaps[q][id] = r.Snap()
				if id == 0 {
					stamps[q] = time.Now()
				}
			}
			w := newWorker(r, grid, st, opts, thresh)
			w.ckptEvery = j.ckptEvery
			w.onCkpt = func(k int) { coll.save(id, k, r.Snap(), w.bg.encode(), w.tiny) }
			workers[id] = w
			if ck != nil {
				if err := w.bg.decode(ck.Blocks[id]); err != nil {
					restoreErrs[id] = err
					return
				}
				w.start = ck.Frontier
				w.tiny = ck.Tinies[id]
				for k := 0; k < ck.Frontier && k < st.N; k++ {
					w.panelDone[k] = true
				}
				r.Restore(ck.Snaps[id], resumeAt)
			} else {
				if j.slices == nil {
					w.bg.Scatter(a)
				}
				// Restart from scratch (failure before the first commit):
				// clocks still resume at the detection time so the
				// finish time stays an end-to-end measurement.
				if resumeAt > 0 {
					r.Restore(mpisim.Snapshot{}, resumeAt)
				}
			}

			r.Barrier()
			mark(0)
			if j.slices != nil && ck == nil {
				w.redistribute(a, j.slices[id])
				r.Barrier()
			}
			mark(1)
			w.factorize()
			r.Barrier()
			factorDone.Store(true)
			mark(2)

			sols := make([][][]float64, len(j.bs))
			for q, b := range j.bs {
				ys := w.sweep(false, func(k int) []float64 {
					lo, hi := st.SupCols(k)
					return b[lo:hi]
				})
				r.Barrier()
				sols[q] = w.sweep(true, func(k int) []float64 { return ys[k] })
				r.Barrier()
			}
			mark(3)

			for q := range j.bs {
				w.gatherX(sols[q], xs[q])
				r.Barrier() // gather reuses per-supernode tags across RHS
			}
		})

		for i, err := range restoreErrs {
			if err != nil {
				return out, fmt.Errorf("dist: rank %d checkpoint restore: %w", i, err)
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
			baseClock := 0.0
			for i, s := range world.Snapshots() {
				var bf, bm int64
				if next != nil {
					bf, bm = next.Snaps[i].Flops, next.Snaps[i].Msgs
				}
				rec.ReplayedFlops += s.Flops - bf
				rec.ExtraMessages += s.Msgs - bm
			}
			if next != nil {
				baseClock = next.MaxClock()
			}
			if d := fr.DetectedAt - baseClock; d > 0 {
				rec.AddedSimTime += d
			}
			if rec.Restarts >= j.maxRestarts {
				return out, fmt.Errorf("dist: unrecovered after %d restarts: %s rank %d in %s phase: %w",
					rec.Restarts, fr.Kind, fr.Rank, fr.Phase, fr.Err)
			}
			rec.Restarts++
			ck = next
			resumeAt = fr.DetectedAt
			continue
		}

		out.res = &Result{Grid: grid, SupernodeAv: sym.AvgSupernode()}
		out.redist = phaseStats(snaps[0], snaps[1], stamps[1].Sub(stamps[0]))
		out.res.Factor = phaseStats(snaps[1], snaps[2], stamps[2].Sub(stamps[1]))
		out.res.Solve = phaseStats(snaps[2], snaps[3], stamps[3].Sub(stamps[2]))
		for _, s := range world.Snapshots() {
			if s.Clock > rec.FinishSimTime {
				rec.FinishSimTime = s.Clock
			}
		}
		out.grids = make([]*BlockGrid, P)
		for i, w := range workers {
			out.grids[i] = w.bg
			out.res.TinyPivots += w.tiny
		}
		for i, w := range workers {
			if w.zeroPivot {
				return out, fmt.Errorf("%w (rank %d)", ErrZeroPivotDist, i)
			}
		}
		out.xs = xs
		if len(xs) > 0 {
			out.res.X = xs[0]
		}
		return out, nil
	}
}

// phaseStats summarizes the phase between two barrier-aligned sets of
// per-rank snapshots; wall is its host time.
func phaseStats(before, after []mpisim.Snapshot, wall time.Duration) PhaseStats {
	s := mpisim.PhaseStats(before, after)
	return PhaseStats{
		SimTime: s.Time, Mflops: s.Mflops(), CommFraction: s.CommFraction,
		LoadBalance: s.LoadBalance, Messages: s.Messages, Volume: s.Volume, Wall: wall,
	}
}
