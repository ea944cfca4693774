package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"gesp/internal/faultsim"
	"gesp/internal/matgen"
	"gesp/internal/resilience"
	"gesp/internal/sparse"
)

// randomBatch draws k right-hand sides with standard normal entries.
func randomBatch(s *Solver, k int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	bs := make([][]float64, k)
	for r := range bs {
		bs[r] = make([]float64, s.n)
		for i := range bs[r] {
			bs[r][i] = rng.NormFloat64()
		}
	}
	return bs
}

func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestSolveBatchBitwiseIndependentOfWorkers: for one factorization, every
// solution of a batch is bit for bit the one Solve returns, whatever
// Workers cuts the batch into — one block, whole quads, a quad and a
// remainder — refined, unrefined, with a ladder, and under
// AggressivePivot, where the system solved is the SMW recovery and not
// the perturbed factors. (Run under -race by make race: the cut runs one
// goroutine per block, which packs, sweeps, refines and unpacks its
// vectors.)
func TestSolveBatchBitwiseIndependentOfWorkers(t *testing.T) {
	testbed := func(name string) *sparse.CSC {
		m, _ := matgen.Lookup(name)
		return m.Generate(testScale)
	}
	// The near-singular system of TestParallelAggressivePivotMatchesSerial.
	nearSingular := faultsim.New(25).NearSingular(150, 1e-12)
	aggressive := DefaultOptions()
	aggressive.Equilibrate, aggressive.RowPermute = false, false
	aggressive.AggressivePivot = true
	unrefined := func(o Options) Options { o.Refine = false; return o }
	laddered := DefaultOptions()
	laddered.Resilience = &resilience.Policy{}
	for _, c := range []struct {
		name    string
		a       *sparse.CSC
		opts    Options
		maxBerr float64 // of every Solve, when set
	}{
		{"GEMAT11", testbed("GEMAT11"), DefaultOptions(), 0},
		{"AF23560", testbed("AF23560"), DefaultOptions(), 0},
		{"TWOTONE", testbed("TWOTONE"), DefaultOptions(), 0},
		{"GEMAT11 unrefined", testbed("GEMAT11"), unrefined(DefaultOptions()), 0},
		{"AF23560 laddered", testbed("AF23560"), laddered, 0},
		// SMW solves the true system: even unrefined, berr is far below
		// the perturbed factors' ≈ 1.
		{"near-singular aggressive", nearSingular, aggressive, 1e-8},
		{"near-singular aggressive unrefined", nearSingular, unrefined(aggressive), 1e-8},
	} {
		base, err := New(c.a, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 4, 5, 16, 17} {
			bs := randomBatch(base, k, int64(k))
			want := make([][]float64, k)
			for r := range bs {
				if want[r], err = base.Solve(bs[r]); err != nil {
					t.Fatal(err)
				}
				if be := base.Stats().Berr; c.maxBerr > 0 && !(be <= c.maxBerr) {
					t.Fatalf("%s: Solve's berr %g, want ≤ %g", c.name, be, c.maxBerr)
				}
			}
			for _, workers := range []int{0, 2, 3, 32} {
				s := *base // the same factors behind another Workers
				s.opts.Workers = workers
				xs, err := s.SolveBatch(bs)
				if err != nil {
					t.Fatal(err)
				}
				for r := range xs {
					if !bitsEqual(xs[r], want[r]) {
						t.Fatalf("%s k=%d workers=%d: vector %d differs from Solve", c.name, k, workers, r)
					}
				}
			}
		}
	}
}

// TestUnrefinedSolveBatchMeasuresBerr: an unrefined batch reports its
// worst vector's berr, as an unrefined Solve reports its own, and not the
// previous call's.
func TestUnrefinedSolveBatchMeasuresBerr(t *testing.T) {
	m, _ := matgen.Lookup("SHERMAN4")
	a := m.Generate(testScale)
	opts := DefaultOptions()
	opts.Refine = false
	s, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	bs := randomBatch(s, 5, 13)
	worst, converged := 0.0, true
	for _, b := range bs {
		if _, err := s.Solve(b); err != nil {
			t.Fatal(err)
		}
		worst, converged = max(worst, s.Stats().Berr), converged && s.Stats().Converged
	}
	poisoned := matgen.OnesRHS(a)
	poisoned[0] = math.NaN()
	if _, err := s.Solve(poisoned); err != nil {
		t.Fatal(err)
	}
	if be := s.Stats().Berr; !math.IsNaN(be) {
		t.Fatalf("unrefined Solve of a NaN right-hand side: berr %g, want NaN", be)
	}
	if _, err := s.SolveBatch(bs); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Berr != worst || st.Converged != converged || st.RefineSteps != 0 {
		t.Errorf("unrefined batch: berr %g, converged %v, %d steps; want the worst vector's %g, %v, 0", st.Berr, st.Converged, st.RefineSteps, worst, converged)
	}
}

// TestSolveBatchStatsDescribeWorstVector: the refinement stats after a
// batch are its worst vector's, not its last one's, so an unconverged
// vector in the middle shows.
func TestSolveBatchStatsDescribeWorstVector(t *testing.T) {
	m, _ := matgen.Lookup("GEMAT11")
	a := m.Generate(testScale)
	s, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bs := randomBatch(s, 5, 11)
	bs[4] = make([]float64, a.Rows) // a zero right-hand side: berr 0, no steps
	var worst Stats
	for r, b := range bs {
		if _, err := s.Solve(b); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); r == 0 || st.Berr > worst.Berr {
			worst.Berr, worst.BerrHistory = st.Berr, st.BerrHistory
		}
		worst.RefineSteps = max(worst.RefineSteps, s.Stats().RefineSteps)
	}
	if worst.RefineSteps == 0 || worst.Berr == 0 {
		t.Fatalf("no vector needed refinement: %+v", worst)
	}
	if _, err := s.SolveBatch(bs); err != nil {
		t.Fatal(err)
	}
	got := s.Stats()
	if got.RefineSteps != worst.RefineSteps || got.Berr != worst.Berr || !bitsEqual(got.BerrHistory, worst.BerrHistory) || !got.Converged {
		t.Errorf("batch stats %d steps, berr %g, history %v, converged %v; want the worst vector's %d, %g, %v, true",
			got.RefineSteps, got.Berr, got.BerrHistory, got.Converged, worst.RefineSteps, worst.Berr, worst.BerrHistory)
	}
}

// TestBatchHistoryOutlivesNextBatch: the berr history a batch's Stats
// report must be the batch's own, not storage the next batch refines in
// (the tiles are pooled across batches and solvers). Two solvers run
// batches one after the other, and on two goroutines at once, before the
// first batch's history is read.
func TestBatchHistoryOutlivesNextBatch(t *testing.T) {
	m, _ := matgen.Lookup("GEMAT11")
	a := m.Generate(testScale)
	s1, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	first := randomBatch(s1, 9, 21)
	if _, err := s1.SolveBatch(first); err != nil {
		t.Fatal(err)
	}
	kept := s1.Stats()
	want := append([]float64(nil), kept.BerrHistory...)
	if len(want) < 2 {
		t.Fatalf("first batch took no step: history %v", want)
	}
	var wg sync.WaitGroup
	for g, s := range []*Solver{s1, s2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 4; k++ {
				if _, err := s.SolveBatch(randomBatch(s, 9+k, int64(100*g+k))); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if !bitsEqual(kept.BerrHistory, want) || len(kept.BerrHistory) != len(want) {
		t.Fatalf("first batch's history changed under later batches: %v, was %v", kept.BerrHistory, want)
	}
}

// TestNaNVectorIsNotConverged: without a ladder nothing rejects a
// poisoned right-hand side, so its NaN solution has to show in the stats
// — berr NaN, not converged — and must not touch its batch-mates.
func TestNaNVectorIsNotConverged(t *testing.T) {
	m, _ := matgen.Lookup("SHERMAN4")
	a := m.Generate(testScale)
	s, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	good := matgen.OnesRHS(a)
	bad := append([]float64(nil), good...)
	bad[a.Rows/2] = math.NaN()

	if _, err := s.Solve(bad); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Converged || !math.IsNaN(st.Berr) {
		t.Errorf("Solve of a NaN right-hand side: converged %v, berr %g", st.Converged, st.Berr)
	}
	want, err := s.Solve(good)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Stats().Converged {
		t.Fatal("healthy solve did not converge")
	}

	xs, err := s.SolveBatch([][]float64{good, bad, good})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Converged || !math.IsNaN(st.Berr) {
		t.Errorf("batch with a poisoned vector in the middle: converged %v, berr %g", st.Converged, st.Berr)
	}
	if !bitsEqual(xs[0], want) || !bitsEqual(xs[2], want) {
		t.Error("the poisoned vector disturbed its batch-mates")
	}
	poisoned := false
	for _, v := range xs[1] {
		poisoned = poisoned || math.IsNaN(v)
	}
	if !poisoned {
		t.Error("a NaN right-hand side produced a finite solution")
	}
}

// BenchmarkSolveBatch is a healthy 16-wide batch on AF23560@1, plain and
// with a resilience ladder, at Workers 0 and 2. The ladder's rung 0 is
// the plain batch's blocked refinement, so the two arms should cost the
// same: a gap is the ladder's per-vector bookkeeping.
func BenchmarkSolveBatch(b *testing.B) {
	m, _ := matgen.Lookup("AF23560")
	a := m.Generate(1)
	for _, arm := range []string{"plain", "ladder"} {
		for _, workers := range []int{0, 2} {
			opts := DefaultOptions()
			opts.Workers = workers
			if arm == "ladder" {
				opts.Resilience = &resilience.Policy{}
			}
			s, err := New(a, opts)
			if err != nil {
				b.Fatal(err)
			}
			bs := randomBatch(s, 16, 1)
			b.Run(fmt.Sprintf("%s/workers=%d", arm, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := s.SolveBatch(bs); err != nil {
						b.Fatal(err)
					}
				}
				if st := s.Stats(); st.Escalations != 0 || !st.Converged {
					b.Fatalf("batch not healthy: %d escalations, converged %v", st.Escalations, st.Converged)
				}
			})
		}
	}
}
