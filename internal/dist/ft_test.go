package dist

import (
	"errors"
	"math"
	"testing"
	"time"

	"gesp/internal/check"
	"gesp/internal/faultsim"
	"gesp/internal/lu"
	"gesp/internal/mpisim"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

const ftBackstop = 30 * time.Second

// ftSystem builds the chaos-suite test system: matrix, symbolic
// structure, and a right-hand side with known solution.
func ftSystem(t *testing.T, seed int64, n int) (*sparse.CSC, *symbolic.Result, []float64, []float64) {
	t.Helper()
	a := faultsim.New(seed).WellConditioned(n, 0.05)
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 8})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = 1 + float64(i%5)
	}
	b := make([]float64, n)
	a.MatVec(b, want)
	return a, sym, b, want
}

func ftBaseline(t *testing.T, a *sparse.CSC, sym *symbolic.Result, b []float64, opts FTOptions) (*Result, *Recovery) {
	t.Helper()
	opts.Fault = nil
	res, rec, err := SolveFT(a, sym, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Attempts != 1 || rec.Restarts != 0 {
		t.Fatalf("fault-free run took %d attempts", rec.Attempts)
	}
	return res, rec
}

func checkRecovered(t *testing.T, name string, res *Result, rec *Recovery, base *Result, baseRec *Recovery, want []float64) {
	t.Helper()
	if rec.Restarts < 1 {
		t.Fatalf("%s: no restart happened (attempts=%d)", name, rec.Attempts)
	}
	if rec.Fingerprint != baseRec.Fingerprint {
		t.Fatalf("%s: recovered fingerprint %x != fault-free %x — recovery is not bit-identical",
			name, rec.Fingerprint, baseRec.Fingerprint)
	}
	if e := sparse.RelErrInf(res.X, want); e > 1e-9 {
		t.Fatalf("%s: recovered solution error %g", name, e)
	}
	// The factors are bit-identical (fingerprint above); the solution
	// agrees to roundoff only, because the message-driven triangular
	// solve reduces partial sums in RecvAny arrival-resolution order,
	// which depends on host scheduling.
	if e := sparse.RelErrInf(res.X, base.X); e > 1e-9 {
		t.Fatalf("%s: recovered solution differs from fault-free by %g", name, e)
	}
	if len(rec.Failures) != rec.Restarts {
		t.Fatalf("%s: %d failure reports for %d restarts", name, len(rec.Failures), rec.Restarts)
	}
	if rec.DetectLatency <= 0 || rec.AddedSimTime <= 0 {
		t.Fatalf("%s: recovery accounting empty: %+v", name, rec)
	}
}

// A fault-free SolveFT must agree with the plain driver bit for bit
// (the checkpoint barriers change scheduling, never numerics) and with
// the serial factorization via the assembled fingerprint.
func TestSolveFTMatchesSolve(t *testing.T) {
	a, sym, b, want := ftSystem(t, 3, 120)
	opts := FTOptions{Options: Options{Procs: 4, EDAGPrune: true, ReplaceTinyPivot: true}}
	res, rec := ftBaseline(t, a, sym, b, opts)
	if e := sparse.RelErrInf(res.X, want); e > 1e-9 {
		t.Fatalf("SolveFT error %g", e)
	}
	plain, err := Solve(a, sym, b, Options{Procs: 4, EDAGPrune: true, ReplaceTinyPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if e := sparse.RelErrInf(res.X, plain.X); e > 1e-9 {
		t.Fatalf("SolveFT solution differs from Solve by %g", e)
	}
	// The assembled factors agree with the serial left-looking GESP to
	// roundoff (the right-looking distributed update order accumulates
	// differently, so bit equality holds only dist-vs-dist).
	serial, err := lu.Factorize(a, sym, lu.Options{ReplaceTinyPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	asm := oneRankFactor(a, sym).Factors(a)
	// One block schedule, two executions: the 1-rank worker and the
	// 4-rank fault-tolerant run assemble to the same bits.
	fp := asm.Fingerprint()
	if rec.Fingerprint != fp {
		t.Fatalf("SolveFT fingerprint %x != 1-rank worker %x", rec.Fingerprint, fp)
	}
	// Assembled factors carry ColAMax, so the serial diagnostics work on
	// a distributed factorization.
	if g, w := asm.ReciprocalPivotGrowth(), serial.ReciprocalPivotGrowth(); !(g > 0) || math.Abs(g-w) > 1e-9*w {
		t.Fatalf("assembled pivot growth %g vs serial %g", g, w)
	}
	scale := a.MaxAbs()
	for p := range asm.UVal {
		if d := math.Abs(asm.UVal[p] - serial.UVal[p]); d > 1e-10*scale {
			t.Fatalf("assembled UVal[%d]=%g vs serial %g", p, asm.UVal[p], serial.UVal[p])
		}
	}
	for q := range asm.LVal {
		if d := math.Abs(asm.LVal[q] - serial.LVal[q]); d > 1e-10*scale {
			t.Fatalf("assembled LVal[%d]=%g vs serial %g", q, asm.LVal[q], serial.LVal[q])
		}
	}
	if rec.Checkpoints == 0 || rec.CheckpointBytes == 0 {
		t.Fatalf("no checkpoints committed: %+v", rec)
	}
}

// killDuringFactor runs the kill-one-rank scenario on the given grid
// and verifies bit-identical recovery.
func killDuringFactor(t *testing.T, grid mpisim.Grid) {
	t.Helper()
	a, sym, b, want := ftSystem(t, 5, 120)
	procs := grid.PRow * grid.PCol
	opts := FTOptions{Options: Options{Procs: procs, Grid: &grid, EDAGPrune: true, ReplaceTinyPivot: true}}
	base, baseRec := ftBaseline(t, a, sym, b, opts)

	killAt := 0.3 * base.Factor.SimTime
	opts.Fault = faultsim.NewChaos(11).Kill(1, killAt).WallBackstop(ftBackstop).Build()
	res, rec, err := SolveFT(a, sym, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, grid.String(), res, rec, base, baseRec, want)
	f := rec.Failures[0]
	if !errors.Is(f.Err, mpisim.ErrRankDead) || f.Kind != "kill" || f.Rank != 1 {
		t.Fatalf("failure report %+v, want kill of rank 1", f)
	}
	if f.Phase != "factorize" {
		t.Fatalf("failure phase %q, want factorize", f.Phase)
	}
	if rec.ReplayedFlops <= 0 || rec.ExtraMessages <= 0 {
		t.Fatalf("replay accounting empty: %+v", rec)
	}
}

func TestKillOneRankRecovers2x2(t *testing.T) { killDuringFactor(t, mpisim.Grid{PRow: 2, PCol: 2}) }
func TestKillOneRankRecovers2x4(t *testing.T) { killDuringFactor(t, mpisim.Grid{PRow: 2, PCol: 4}) }

// A kill during the triangular solve restarts from the final (frontier
// = N) checkpoint: no factorization is replayed, and recovery is still
// bit-identical.
func TestKillDuringSolveRecovers(t *testing.T) {
	a, sym, b, want := ftSystem(t, 5, 120)
	opts := FTOptions{Options: Options{Procs: 4, EDAGPrune: true, ReplaceTinyPivot: true}}
	base, baseRec := ftBaseline(t, a, sym, b, opts)

	killAt := base.Factor.SimTime + 0.25*base.Solve.SimTime
	opts.Fault = faultsim.NewChaos(13).Kill(2, killAt).WallBackstop(ftBackstop).Build()
	res, rec, err := SolveFT(a, sym, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, "solve-phase", res, rec, base, baseRec, want)
	if f := rec.Failures[0]; f.Phase != "solve" {
		t.Fatalf("failure phase %q, want solve (report %+v)", f.Phase, f)
	}
}

// A stall past the watchdog deadline is treated as death and recovered
// the same way.
func TestStallRecovers(t *testing.T) {
	a, sym, b, want := ftSystem(t, 5, 120)
	opts := FTOptions{Options: Options{Procs: 4, EDAGPrune: true, ReplaceTinyPivot: true}}
	base, baseRec := ftBaseline(t, a, sym, b, opts)

	stallAt := 0.5 * base.Factor.SimTime
	opts.Fault = faultsim.NewChaos(17).
		Stall(3, stallAt, 20*mpisim.DefaultWatchdogDeadline).
		WallBackstop(ftBackstop).Build()
	res, rec, err := SolveFT(a, sym, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, "stall", res, rec, base, baseRec, want)
	if f := rec.Failures[0]; f.Kind != "stall" || f.Rank != 3 {
		t.Fatalf("failure report %+v, want stall-death of rank 3", f)
	}
}

// A dropped message wedges the world (ErrTimeout, no dead rank); the
// bounded drop budget lets the restart outrun the chaos.
func TestDroppedMessageRecovers(t *testing.T) {
	a, sym, b, want := ftSystem(t, 5, 120)
	opts := FTOptions{Options: Options{Procs: 4, EDAGPrune: true, ReplaceTinyPivot: true}}
	base, baseRec := ftBaseline(t, a, sym, b, opts)

	opts.Fault = faultsim.NewChaos(19).Drop(0.02, 1).WallBackstop(ftBackstop).Build()
	res, rec, err := SolveFT(a, sym, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Restarts == 0 {
		t.Skip("seed 19 dropped no load-bearing message; nothing to recover")
	}
	checkRecovered(t, "drop", res, rec, base, baseRec, want)
	if f := rec.Failures[0]; !errors.Is(f.Err, mpisim.ErrTimeout) || f.Kind != "wedge" {
		t.Fatalf("failure report %+v, want ErrTimeout wedge", f)
	}
}

// Jitter and duplication alone (no loss, no death) must not need any
// restart, and the result stays bit-identical: delivery is idempotent
// and the blocked receives serialize the same dataflow.
func TestJitterAndDuplicationHarmless(t *testing.T) {
	a, sym, b, _ := ftSystem(t, 5, 120)
	opts := FTOptions{Options: Options{Procs: 4, EDAGPrune: true, ReplaceTinyPivot: true}}
	_, baseRec := ftBaseline(t, a, sym, b, opts)

	opts.Fault = faultsim.NewChaos(23).Jitter(5e-5).Duplicate(0.2).WallBackstop(ftBackstop).Build()
	_, rec, err := SolveFT(a, sym, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Restarts != 0 {
		t.Fatalf("jitter+duplication forced %d restarts", rec.Restarts)
	}
	if rec.Fingerprint != baseRec.Fingerprint {
		t.Fatalf("fingerprint changed under jitter+duplication: %x vs %x",
			rec.Fingerprint, baseRec.Fingerprint)
	}
}

// The whole recovery pipeline is deterministic: identical chaos plans
// give identical simulated times, message counts, replay accounting and
// fingerprints (run under -race by make chaostest).
func TestSolveFTDeterminism(t *testing.T) {
	a, sym, b, _ := ftSystem(t, 5, 120)
	chaos := faultsim.NewChaos(29).Jitter(2e-5).Duplicate(0.1).WallBackstop(ftBackstop)

	run := func(killAt float64) (*Result, *Recovery) {
		opts := FTOptions{Options: Options{Procs: 4, EDAGPrune: true, ReplaceTinyPivot: true}}
		opts.Fault = chaos.Build()
		opts.Fault.RankFaults = []mpisim.RankFault{{Rank: 1, At: killAt}}
		res, rec, err := SolveFT(a, sym, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res, rec
	}
	base, _ := ftBaseline(t, a, sym, b, FTOptions{Options: Options{Procs: 4, EDAGPrune: true, ReplaceTinyPivot: true}})
	killAt := 0.4 * base.Factor.SimTime

	r1, rec1 := run(killAt)
	r2, rec2 := run(killAt)
	if rec1.Restarts != rec2.Restarts || rec1.Fingerprint != rec2.Fingerprint ||
		rec1.ReplayedFlops != rec2.ReplayedFlops || rec1.ExtraMessages != rec2.ExtraMessages ||
		rec1.AddedSimTime != rec2.AddedSimTime || rec1.DetectLatency != rec2.DetectLatency {
		t.Fatalf("recovery accounting differs across identical chaos runs:\n%+v\n%+v", rec1, rec2)
	}
	// Factor-phase times are exactly reproducible (tag-directed receives
	// serialize the dataflow); the solve phase is compared by message
	// count only, since its RecvAny reduction order tracks host timing.
	if r1.Factor.SimTime != r2.Factor.SimTime || r1.Factor.Messages != r2.Factor.Messages ||
		r1.Solve.Messages != r2.Solve.Messages {
		t.Fatalf("phase stats differ across identical chaos runs:\n%+v\n%+v", r1.Factor, r2.Factor)
	}
	if rec1.Restarts < 1 {
		t.Fatal("determinism scenario never failed; pick a different killAt")
	}
}

// Checkpoint encode/decode round-trips each rank's grid bit-exactly.
func TestCheckpointRoundTrip(t *testing.T) {
	a, sym, _, _ := ftSystem(t, 31, 80)
	st := BuildStructure(sym)
	grid := mpisim.NewGrid(4)
	grids := newGrids(st, 4, grid.OwnerOfBlock)
	scatter(a, grids, grid.OwnerOfBlock)
	restored := newGrids(st, 4, grid.OwnerOfBlock)
	total := 0
	for rank, blocks := range grids {
		// Deface the values so the round trip is not testing zeros.
		i := 0
		for _, b := range blocks.blocks {
			total++
			for j := range b.Val {
				b.Val[j] = math.Sqrt(2)*float64(i) + 1e-9
				i++
			}
		}
		got := restored[rank]
		if err := got.decode(blocks.encode()); err != nil {
			t.Fatal(err)
		}
		for q, b := range blocks.blocks {
			rb := got.blocks[q]
			if id := blocks.ids[q]; got.ids[q] != id {
				t.Fatalf("rank %d block %d: ownership differs after restore", rank, id)
			}
			for j := range b.Val {
				if math.Float64bits(rb.Val[j]) != math.Float64bits(b.Val[j]) {
					t.Fatalf("rank %d block %d value %d not bit-identical", rank, blocks.ids[q], j)
				}
			}
		}
	}
	if n := len(wholeGrid(st).blocks); total != n {
		t.Fatalf("the four ranks own %d blocks, the structure has %d", total, n)
	}
}

// Corrupt checkpoint blobs are rejected with an error, not a panic.
func TestCheckpointRejectsCorruptBlob(t *testing.T) {
	a, sym, _, _ := ftSystem(t, 31, 80)
	st := BuildStructure(sym)
	full := wholeGrid(st)
	scatter(a, []*BlockGrid{full}, func(int, int) int { return 0 })
	blob := full.encode()
	if err := wholeGrid(st).decode(blob[:len(blob)-4]); err == nil {
		t.Fatal("truncated blob restored without error")
	}
	if err := wholeGrid(st).decode(blob[8:]); err == nil {
		t.Fatal("misaligned blob restored without error")
	}
	// A blob of another rank's blocks: the block count differs.
	part := evenGrid(st)
	if err := part.decode(blob); err == nil {
		t.Fatal("blob with a different block count restored without error")
	}
	// Same count, but the first block's value count is wrong.
	bad := append([]byte(nil), blob...)
	bad[16]++
	if err := wholeGrid(st).decode(bad); err == nil {
		t.Fatal("blob with a wrong value count restored without error")
	}
	// Same count, but a block id the skeleton does not expect there.
	bad = append([]byte(nil), blob...)
	bad[8]++
	if err := wholeGrid(st).decode(bad); err == nil {
		t.Fatal("blob naming the wrong block restored without error")
	}
}

// evenGrid holds the structural blocks (i, j) with i+j even.
func evenGrid(st *Structure) *BlockGrid {
	return newGrids(st, 1, func(i, j int) int { return -((i + j) % 2) })[0]
}

// Under gespcheck, merging per-rank grids rejects a block owned twice or
// by nobody instead of silently assembling the wrong factors.
func TestMergeGridsChecksOwnership(t *testing.T) {
	if !check.Enabled {
		t.Skip("ownership assertion is compiled in only under the gespcheck tag")
	}
	_, sym, _, _ := ftSystem(t, 31, 80)
	st := BuildStructure(sym)
	even := evenGrid(st)
	for name, grids := range map[string][]*BlockGrid{
		"owned twice": {wholeGrid(st), even},
		"unowned":     {even},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: mergeGrids accepted the layout", name)
				}
			}()
			mergeGrids(grids)
		}()
	}
}
