package serve

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gesp/internal/core"
	"gesp/internal/matgen"
	"gesp/internal/sparse"
)

const testScale = 0.25

// system is one solvable test fixture: a matrix, a right-hand side with
// known solution 1, and that solution.
type system struct {
	a    *sparse.CSC
	b    []float64
	want []float64
}

func testbedSystem(t testing.TB, name string, valueSeed int64) system {
	t.Helper()
	m, ok := matgen.Lookup(name)
	if !ok {
		t.Fatalf("testbed matrix %s missing", name)
	}
	a := m.Generate(testScale)
	if valueSeed != 0 {
		rng := rand.New(rand.NewSource(valueSeed))
		for k := range a.Val {
			a.Val[k] *= 1 + 0.1*rng.NormFloat64()
		}
	}
	want := make([]float64, a.Rows)
	for i := range want {
		want[i] = 1
	}
	b := make([]float64, a.Rows)
	a.MatVec(b, want)
	return system{a: a, b: b, want: want}
}

func checkSolution(t *testing.T, x, want []float64) {
	t.Helper()
	if e := sparse.RelErrInf(x, want); e > 2e-3 {
		t.Fatalf("served solution error %g", e)
	}
}

func TestSubmitSolveRoundTrip(t *testing.T) {
	svc := New(DefaultConfig())
	defer svc.Close()
	sys := testbedSystem(t, "SHERMAN4", 0)
	h, err := svc.Submit(sys.a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := svc.Solve(h, sys.b)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, x, sys.want)

	st := svc.Stats()
	if st.Submits != 1 || st.SymbolicMisses != 1 || st.FactorMisses != 1 {
		t.Fatalf("first submission accounting off: %+v", st)
	}
	if st.Solves != 1 || st.Batches != 1 {
		t.Fatalf("solve accounting off: %+v", st)
	}
}

// TestPatternHitSkipsSymbolicWork is the acceptance-criterion test: a
// pattern-cache-hit submission must perform no MC64, no ordering and no
// symbolic analysis, proven by the core phase-run counters of the
// factorization it builds.
func TestPatternHitSkipsSymbolicWork(t *testing.T) {
	svc := New(DefaultConfig())
	defer svc.Close()
	first := testbedSystem(t, "GEMAT11", 0)
	twin := testbedSystem(t, "GEMAT11", 77) // same pattern, new values

	h1, err := svc.Submit(first.a)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := svc.Submit(twin.a)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Key.Pattern != h2.Key.Pattern {
		t.Fatal("pattern twins got different pattern fingerprints")
	}
	if h1.Key == h2.Key {
		t.Fatal("different values collapsed to one factor key")
	}

	st := svc.Stats()
	if st.SymbolicMisses != 1 || st.SymbolicHits != 1 {
		t.Fatalf("symbolic cache: hits=%d misses=%d, want 1/1", st.SymbolicHits, st.SymbolicMisses)
	}
	if st.FactorMisses != 2 || st.FactorHits != 0 {
		t.Fatalf("factor cache: hits=%d misses=%d, want 0/2", st.FactorHits, st.FactorMisses)
	}

	// The decisive proof: the twin's factorization ran zero analysis
	// phases of its own.
	e := svc.c.lookupFactor(h2.Key)
	if e == nil {
		t.Fatal("twin factorization not cached")
	}
	cs := e.bat.solver.(*core.Solver).Stats()
	if cs.EquilRuns != 0 || cs.RowPermRuns != 0 || cs.OrderRuns != 0 || cs.SymbolicRuns != 0 {
		t.Fatalf("pattern-hit factorization ran analysis phases: %+v", cs)
	}
	if cs.FactorRuns != 1 {
		t.Fatalf("pattern-hit factorization FactorRuns = %d, want 1", cs.FactorRuns)
	}

	// An identical resubmission is a pure factor hit: no work at all.
	if _, err := svc.Submit(twin.a); err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.FactorHits != 1 {
		t.Fatalf("identical resubmission: factor hits = %d, want 1", st.FactorHits)
	}

	// And both systems still solve correctly.
	x1, err := svc.Solve(h1, first.b)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, x1, first.want)
	x2, err := svc.Solve(h2, twin.b)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, x2, twin.want)
}

func TestSolveUnknownHandle(t *testing.T) {
	svc := New(DefaultConfig())
	defer svc.Close()
	h := Handle{Key: FactorKey{Pattern: 1, Values: 2}, N: 4}
	if _, err := svc.Solve(h, make([]float64, 4)); !errors.Is(err, ErrHandleExpired) {
		t.Fatalf("got %v, want ErrHandleExpired", err)
	}
	if st := svc.Stats(); st.Expired != 1 {
		t.Fatalf("expired counter = %d, want 1", st.Expired)
	}
}

func TestClosedService(t *testing.T) {
	svc := New(DefaultConfig())
	sys := testbedSystem(t, "SHERMAN4", 0)
	h, err := svc.Submit(sys.a)
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	if _, err := svc.Submit(sys.a); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: %v", err)
	}
	if _, err := svc.Solve(h, sys.b); !errors.Is(err, ErrClosed) {
		t.Fatalf("Solve after Close: %v", err)
	}
}

func TestServiceRejectsNonSquare(t *testing.T) {
	svc := New(DefaultConfig())
	defer svc.Close()
	tr := sparse.NewTriplet(2, 3)
	tr.Append(0, 0, 1)
	if _, err := svc.Submit(tr.ToCSC()); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	sys := testbedSystem(t, "SHERMAN4", 0)
	h, err := svc.Submit(sys.a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Solve(h, make([]float64, 3)); err == nil {
		t.Fatal("wrong-length RHS accepted")
	}
}

func TestHandleStringRoundTrip(t *testing.T) {
	h := Handle{Key: FactorKey{Pattern: 0xdeadbeef01, Values: 0x42}, N: 1234}
	got, err := ParseHandle(h.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip %v -> %q -> %v", h, h.String(), got)
	}
	if _, err := ParseHandle("bogus"); err == nil {
		t.Fatal("malformed handle accepted")
	}
}

// TestConcurrentMixedLoad is the acceptance-criterion load test: 8+
// clients hammer the service with a mix of cache hits and misses —
// duplicate submissions (singleflight), pattern twins (symbolic reuse)
// and repeated solves (batching) — and every returned solution must be
// right. Run under -race via the Makefile race target.
func TestConcurrentMixedLoad(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxBatch = 4
	cfg.MaxDelay = 100 * time.Microsecond
	svc := New(cfg)
	defer svc.Close()

	// 2 patterns × 3 value variants = 6 distinct systems.
	var systems []system
	for _, name := range []string{"SHERMAN4", "GEMAT11"} {
		for _, seed := range []int64{0, 11, 23} {
			systems = append(systems, testbedSystem(t, name, seed))
		}
	}

	const clients = 8
	const solvesPerClient = 12
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + c)))
			// Every client submits every system (mostly duplicate work:
			// singleflight and the caches absorb it), then solves.
			handles := make([]Handle, len(systems))
			for i := range systems {
				h, err := svc.Submit(systems[i].a)
				if err != nil {
					errc <- err
					return
				}
				handles[i] = h
			}
			for n := 0; n < solvesPerClient; n++ {
				i := rng.Intn(len(systems))
				x, err := svc.Solve(handles[i], systems[i].b)
				if err != nil {
					errc <- err
					return
				}
				if e := sparse.RelErrInf(x, systems[i].want); e > 2e-3 {
					t.Errorf("client %d solve %d: error %g", c, n, e)
					return
				}
				if n%5 == 0 {
					_ = svc.Stats() // exercise snapshotting under load
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.Solves != clients*solvesPerClient {
		t.Fatalf("solves = %d, want %d", st.Solves, clients*solvesPerClient)
	}
	// 6 distinct systems exist; every further submission must have been
	// absorbed as a hit or merged by singleflight, never re-analyzed:
	// 2 patterns were analyzed once each.
	if st.Phases[PhaseAnalyze.String()].Count != 2 {
		t.Fatalf("analyze phase ran %d times, want 2", st.Phases[PhaseAnalyze.String()].Count)
	}
	if got := st.Phases[PhaseFactor.String()].Count; got != 6 {
		t.Fatalf("factor phase ran %d times, want 6", got)
	}
	if st.QueueDepth != 0 {
		t.Fatalf("queue depth %d after drain, want 0", st.QueueDepth)
	}
	if st.LoadShed != 0 {
		t.Fatalf("unexpected load shedding: %d", st.LoadShed)
	}
}
