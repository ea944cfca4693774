package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"gesp/internal/matgen"
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
// remainder. (Run under -race by make race: the cut runs one goroutine
// per block, which packs, sweeps, refines and unpacks its vectors.)
func TestSolveBatchBitwiseIndependentOfWorkers(t *testing.T) {
	for _, name := range []string{"GEMAT11", "AF23560", "TWOTONE", "GEMAT11 unrefined"} {
		m, _ := matgen.Lookup(strings.Fields(name)[0])
		opts := DefaultOptions()
		opts.Refine = !strings.HasSuffix(name, "unrefined")
		base, err := New(m.Generate(testScale), opts)
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
						t.Fatalf("%s k=%d workers=%d: vector %d differs from Solve", name, k, workers, r)
					}
				}
			}
		}
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
