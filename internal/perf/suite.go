package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"gesp/internal/core"
	"gesp/internal/dist"
	"gesp/internal/fleet"
	"gesp/internal/fleetrpc"
	"gesp/internal/kernels"
	"gesp/internal/lu"
	"gesp/internal/matgen"
	"gesp/internal/ordering"
	"gesp/internal/refine"
	"gesp/internal/serve"
	"gesp/internal/symbolic"
)

// Matrix is the testbed matrix the engine benchmarks run on: mid-sized,
// no zero diagonal, representative supernode widths.
const Matrix = "AF23560"

// bench describes one measurement: fn performs iters operations.
type bench struct {
	name    string
	class   string
	hot     bool
	measAll bool // measure allocs/op (hot kernels carry the zero-alloc guarantee)
	// median reports the median rep instead of the best: for runs long
	// enough that a collection lands in most of them.
	median bool
	flops  float64
	iters  int
	fn     func()
}

// Run measures the suite and returns the snapshot. quick trims the
// repetition counts to smoke-test levels (CI wiring checks, not stable
// timings — quick snapshots still gate allocs, which don't need reps).
func Run(scale float64, quick bool) (*File, error) {
	reps, minTime := 5, 100*time.Millisecond
	if quick {
		reps, minTime = 1, 0
	}

	m, ok := matgen.Lookup(Matrix)
	if !ok {
		return nil, fmt.Errorf("perf: unknown testbed matrix %q", Matrix)
	}
	a := m.Generate(scale)
	s, err := core.NewAnalysis(a, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("perf: analysis: %w", err)
	}
	ap, sym := s.PermutedMatrix(), s.Symbolic()
	opts := lu.Options{ReplaceTinyPivot: true}
	f, err := lu.Factorize(ap, sym, opts)
	if err != nil {
		return nil, fmt.Errorf("perf: factorize: %w", err)
	}

	benches, err := kernelBenches()
	if err != nil {
		return nil, err
	}

	// Batched multi-RHS solve on the real factors.
	const nrhs = 8
	n := sym.N
	x := make([]float64, n*nrhs)
	tile := make([]float64, kernels.Lanes*n)
	rng := rand.New(rand.NewSource(7))
	solveFlops := float64(2*(len(f.LVal)+len(f.UVal))) * nrhs
	benches = append(benches, bench{
		name: "solve/multi/" + Matrix, class: "solve", hot: true, measAll: true,
		flops: solveFlops, iters: 1,
		fn: func() {
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			f.SolveMulti(x, nrhs, tile)
		},
	})

	// The batched refinement's residual pass: one walk over A for a tile
	// of kernels.Lanes iterates, r = b − A·x, |A|·|x| and each lane's
	// berr (two products and two sums per entry and lane).
	rtile, dtile, wtile := make([]float64, kernels.Lanes*n), make([]float64, kernels.Lanes*n), make([]float64, kernels.Lanes*n)
	xtile, btile := make([]float64, kernels.Lanes*n), make([]float64, kernels.Lanes*n)
	for i := range xtile {
		xtile[i], btile[i] = 0.5+rng.Float64(), rng.NormFloat64()
	}
	var berr [kernels.Lanes]float64
	benches = append(benches, bench{
		name: "kernel/residual-tile/" + Matrix, class: "kernel", hot: true, measAll: true,
		flops: float64(4 * kernels.Lanes * len(ap.Val)), iters: 1,
		fn: func() {
			kernels.ResidualTile(rtile, dtile, wtile, n, ap.ColPtr, ap.RowInd, ap.Val, xtile, btile, 1<<kernels.Lanes-1, false, &berr)
		},
	})

	// Refinement of a swept batch, as core.SolveBatch runs it: per step
	// one residual pass over A and one sweep per tile of kernels.Lanes
	// vectors. It allocates its Stats and berr histories once per call,
	// whatever the number of steps (the tiles come from refine's pool),
	// so the count gates. The batch of two is the guard for a tile with
	// six of its eight lanes idle.
	const batch = 16
	bh := make([]float64, n*batch)
	xt := make([]float64, n)
	for r := 0; r < batch; r++ {
		for i := range xt {
			xt[i] = 0.5 + rng.Float64()
		}
		ap.MatVec(bh[r*n:(r+1)*n], xt)
	}
	swept := append([]float64(nil), bh...)
	f.SolveMulti(swept, batch, tile)
	xb := make([]float64, n*batch)
	for _, k := range []int{batch, 2} {
		benches = append(benches, bench{
			name: fmt.Sprintf("refine/batch%d/%s", k, Matrix), class: "refine", hot: true, measAll: true,
			iters: 1,
			fn: func() {
				copy(xb[:k*n], swept)
				refine.RefineMulti(ap, f, xb[:k*n], bh[:k*n], k, refine.Options{})
			},
		})
	}

	// Analysis: the two phases a cold solve spends most of its time in,
	// on the graph the engines below factor. Both are deterministic
	// single-thread work and allocate a fixed number of slabs, so the
	// allocation counts gate like the kernels'.
	benches = append(benches,
		bench{name: "analysis/order/" + Matrix, class: "analysis", hot: true, measAll: true,
			iters: 1,
			fn:    func() { ordering.Order(ap, core.DefaultOptions().Ordering) }},
		bench{name: "analysis/symbolic/" + Matrix, class: "analysis", hot: true, measAll: true,
			iters: 1,
			fn:    checked(func() error { _, err := symbolic.Factorize(ap, symbolic.Options{}); return err })},
	)

	// Engines. The serial engine is deterministic single-thread work, so
	// its timing gates; the same engine on its two-worker schedule
	// is recorded for the trajectory only (its wall time depends on the
	// second core), allocs/op included: the factors, one accumulator per
	// worker and the completion flags.
	engFlops := float64(sym.Flops)
	sched2 := lu.NewSchedule(ap, sym, 2)
	benches = append(benches,
		bench{name: "engine/scalar-serial/" + Matrix, class: "engine", hot: true,
			flops: engFlops, iters: 1,
			fn: checked(func() error { _, err := lu.Factorize(ap, sym, opts); return err })},
		bench{name: "engine/scalar-parallel/" + Matrix, class: "engine", hot: false, measAll: true,
			flops: engFlops, iters: 1,
			fn: checked(func() error { _, err := sched2.Factorize(ap, opts); return err })},
	)

	// Fleet routing: the consistent-hash lookup sits on every routed
	// solve, so its zero-alloc guarantee is gated; the end-to-end warm
	// solve through the router is recorded for the trajectory.
	ring := fleet.NewRing([]int{0, 1, 2, 3, 4, 5, 6, 7}, 0)
	keys := make([]uint64, 1024)
	k := uint64(0x9e3779b97f4a7c15)
	for i := range keys {
		k ^= k << 13
		k ^= k >> 7
		k ^= k << 17
		keys[i] = k
	}
	ringSink := 0
	benches = append(benches, bench{
		name: "fleet/ring-owner/8shards", class: "fleet", hot: true, measAll: true,
		iters: len(keys),
		fn: func() {
			for _, key := range keys {
				ringSink += ring.Owner(key)
			}
		},
	})

	scfg := serve.DefaultConfig()
	scfg.Options.Refine = false
	scfg.MaxDelay = 0
	svcs := make([]*serve.Service, 4)
	for i := range svcs {
		svcs[i] = serve.New(scfg)
		defer svcs[i].Close()
	}
	// No health probe fires during the run: the prober's allocations
	// would land in whichever entry's allocs/op window they hit.
	fcfg := fleetrpc.DefaultConfig(fleetrpc.LocalShards(svcs...))
	fcfg.ProbeInterval = time.Hour
	fl, err := fleetrpc.New(fcfg)
	if err != nil {
		return nil, fmt.Errorf("perf: fleet: %w", err)
	}
	defer fl.Close()
	ctx := context.Background()
	fh, err := fl.Submit(ctx, fleetrpc.WireMatrix(a))
	if err != nil {
		return nil, fmt.Errorf("perf: fleet submit: %w", err)
	}
	fb := matgen.OnesRHS(a)
	if _, err := fl.Solve(ctx, fh, fb); err != nil {
		return nil, fmt.Errorf("perf: fleet warm solve: %w", err)
	}
	benches = append(benches, bench{
		name: "fleet/solve-warm/" + Matrix, class: "fleet", hot: false,
		flops: float64(2 * (len(f.LVal) + len(f.UVal))), iters: 1,
		fn: checked(func() error { _, err := fl.Solve(ctx, fh, fb); return err }),
	})

	// The JSON front doors: a submit's MatrixRequest framed where it
	// enters the fleet, a solve's SolveRequest decoded at the shard, both
	// as encoding/json writes them (a client's form). Each allocates only
	// what it returns, so the counts gate.
	mreq := fleetrpc.MatrixRequest{N: a.Rows, Vals: a.Val}
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			mreq.Rows = append(mreq.Rows, a.RowInd[p])
			mreq.Cols = append(mreq.Cols, j)
		}
	}
	mbody, err := json.Marshal(mreq)
	if err != nil {
		return nil, fmt.Errorf("perf: encode matrix request: %w", err)
	}
	sbody, err := json.Marshal(fleetrpc.SolveRequest{Handle: fh.String(), B: fb})
	if err != nil {
		return nil, fmt.Errorf("perf: encode solve request: %w", err)
	}
	benches = append(benches,
		bench{name: "wire/decode-matrix/" + Matrix, class: "wire", hot: true, measAll: true,
			iters: 1,
			fn:    checked(func() error { _, err := fleetrpc.DecodeMatrixRequest(mbody); return err })},
		bench{name: "wire/decode-solve/" + Matrix, class: "wire", hot: true, measAll: true,
			iters: 1,
			fn:    checked(func() error { _, err := fleetrpc.DecodeSolveRequest(sbody); return err })},
	)

	out := &File{
		SchemaVersion: SchemaVersion,
		GoVersion:     runtime.Version(),
		GOARCH:        runtime.GOARCH,
		Scale:         scale,
		Quick:         quick,
	}
	for _, b := range benches {
		out.Entries = append(out.Entries, measure(b, reps, minTime))
	}

	// Simulated distributed engine: the virtual-clock Mflops is the
	// paper-facing number; the host time per run (building the skeleton
	// once, as a Solver does) is the simulator's own cost. Its allocs/op
	// is gated like every measured entry's.
	rhs := matgen.OnesRHS(ap)
	st := dist.BuildStructure(sym)
	var res *dist.Result
	var simErr error
	sim := measure(bench{name: "sim/mpisim-p8/" + Matrix, class: "sim", measAll: true, median: true, iters: 1,
		fn: func() {
			res, simErr = dist.Solve(ap, st, rhs, dist.Options{
				Procs: 8, Pipeline: true, EDAGPrune: true, ReplaceTinyPivot: true,
			})
		}}, reps, minTime)
	if simErr != nil {
		return nil, fmt.Errorf("perf: mpisim: %w", simErr)
	}
	sim.FlopsPerOp, sim.Mflops = engFlops, res.Factor.Mflops
	out.Entries = append(out.Entries, sim)
	if ringSink == -1 {
		return nil, fmt.Errorf("perf: impossible ring owner sum")
	}
	return out, nil
}

// kernelBenches builds the micro-kernel measurements at the supernodal
// shapes the engines feed them: maxSuper = 24 wide panels, row strips
// around the update tile.
func kernelBenches() ([]bench, error) {
	rng := rand.New(rand.NewSource(3))
	const mm, nn, kk = 192, 24, 24
	aV := randSlice(rng, mm*kk)
	bV := randSlice(rng, kk*nn)
	p := make([]float64, mm*nn)
	d := randSlice(rng, nn*nn)
	for i := 0; i < nn; i++ {
		d[i*nn+i] = 2 + float64(i%3)
	}
	panel := randSlice(rng, mm*nn)
	upanel := randSlice(rng, nn*nn)
	diagV := randSlice(rng, nn*nn)

	w := make([]float64, 4096)
	ind := make([]int, 256)
	for i := range ind {
		ind[i] = i * 16
	}
	val := randSlice(rng, len(ind))

	// One supernode run as lu.Factorize applies it: 24 columns stored as
	// the factors store them (diagonal-block entries, then the 192 rows
	// the columns share), all multipliers nonzero — six passes of the
	// four-column body.
	runInd := ind[:mm]
	var runVal []float64
	runEnd := make([]int, kk)
	for c := range runEnd {
		runVal = append(runVal, randSlice(rng, kk-1-c+mm)...)
		runEnd[c] = len(runVal)
	}
	runU := make([]float64, kk)
	for c := range runU {
		runU[c] = 0.5 + rng.Float64()
	}

	// A dist block pair for the full Schur-update path.
	rows := make([]int, mm)
	for i := range rows {
		rows[i] = i
	}
	kcols := make([]int, kk)
	for i := range kcols {
		kcols[i] = 10000 + i
	}
	ucols := make([]int, nn)
	for i := range ucols {
		ucols[i] = 20000 + i
	}
	lBlk := dist.NewBlock(rows, kcols)
	uBlk := dist.NewBlock(kcols, ucols)
	tBlk := dist.NewBlock(rows, ucols)
	copy(lBlk.Val, randSlice(rng, len(lBlk.Val)))
	copy(uBlk.Val, randSlice(rng, len(uBlk.Val)))
	var ws dist.UpdateScratch

	return []bench{
		{name: fmt.Sprintf("kernel/matmul/%dx%dx%d", mm, nn, kk), class: "kernel",
			hot: true, measAll: true, flops: 2 * mm * nn * kk, iters: 4,
			fn: func() {
				for r := 0; r < 4; r++ {
					kernels.MatMul(p, aV, bV, mm, nn, kk)
				}
			}},
		{name: fmt.Sprintf("kernel/trsm-upper-right/%dx%d", mm, nn), class: "kernel",
			hot: true, measAll: true, flops: mm * nn * nn, iters: 4,
			fn: func() {
				for r := 0; r < 4; r++ {
					kernels.TrsmUpperRight(panel, mm, nn, d, nn)
				}
			}},
		{name: fmt.Sprintf("kernel/trsm-lower-left/%dx%d", nn, nn), class: "kernel",
			hot: true, measAll: true, flops: nn * nn * nn, iters: 16,
			fn: func() {
				for r := 0; r < 16; r++ {
					kernels.TrsmLowerUnitLeft(upanel, nn, nn, d, nn)
				}
			}},
		{name: fmt.Sprintf("kernel/factor-diag/%d", nn), class: "kernel",
			hot: true, measAll: true, flops: 2.0 / 3 * nn * nn * nn, iters: 16,
			fn: func() {
				for r := 0; r < 16; r++ {
					for k := 0; k < nn; k++ {
						kernels.Rank1Trailing(diagV, nn, k)
					}
				}
			}},
		{name: fmt.Sprintf("kernel/spaxpy/%d", len(ind)), class: "kernel",
			hot: true, measAll: true, flops: 2 * float64(len(ind)), iters: 256,
			fn: func() {
				for r := 0; r < 256; r++ {
					kernels.SpAxpy(w, ind, val, 0.5)
				}
			}},
		{name: fmt.Sprintf("kernel/spaxpy-cols/%dx%d", mm, kk), class: "kernel",
			hot: true, measAll: true, flops: 2 * mm * kk, iters: 16,
			fn: func() {
				for r := 0; r < 16; r++ {
					kernels.SpAxpyCols(w, runInd, runVal, runEnd, runU)
				}
			}},
		{name: fmt.Sprintf("kernel/rankbupdate/%dx%dx%d", mm, nn, kk), class: "kernel",
			hot: true, measAll: true, flops: 2 * mm * nn * kk, iters: 4,
			fn: func() {
				for r := 0; r < 4; r++ {
					tBlk.RankBUpdateInto(lBlk, uBlk, &ws)
				}
			}},
	}, nil
}

// checked wraps a timed engine run whose failure mode was already
// exercised by the setup factorization on the identical inputs; a rerun
// failing differently would mean nondeterminism the test suite would
// catch, so the benchmark loop panics rather than propagating.
func checked(fn func() error) func() {
	return func() {
		if err := fn(); err != nil {
			panic(err)
		}
	}
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
		if i%5 == 0 {
			s[i] = 0
		}
	}
	return s
}

// measure times one bench: the best (or, for a median bench, the
// median) per-op time over at least nReps runs spanning at least
// minTime, plus allocs/op when the bench is measAll.
func measure(b bench, nReps int, minTime time.Duration) Entry {
	b.fn() // warm caches, scratch high-water marks, one-time growth
	e := Entry{Name: b.name, Class: b.class, HotPath: b.hot, AllocsPerOp: -1, FlopsPerOp: b.flops}
	best := time.Duration(0)
	var reps []time.Duration // kept only for a median
	start := time.Now()
	for r := 0; r < nReps || time.Since(start) < minTime; r++ {
		t0 := time.Now()
		b.fn()
		d := time.Since(t0)
		if best == 0 || d < best {
			best = d
		}
		if b.median {
			reps = append(reps, d)
		}
	}
	per := best
	if b.median {
		slices.Sort(reps)
		per = reps[len(reps)/2]
	}
	e.NsPerOp = float64(per.Nanoseconds()) / float64(b.iters)
	if b.measAll {
		// Counted with the collector paused, a count is a function of
		// the code alone: a collection inside a run changes what the
		// runtime can reuse, which moved the simulator's count by up to
		// 1 % run to run.
		gc := debug.SetGCPercent(-1)
		e.AllocsPerOp = testing.AllocsPerRun(3, b.fn) / float64(b.iters)
		debug.SetGCPercent(gc)
	}
	if e.NsPerOp > 0 && b.flops > 0 {
		e.Mflops = b.flops / (e.NsPerOp / 1e9) / 1e6
	}
	return e
}
