package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesp/internal/faultsim"
	"gesp/internal/resilience"
)

// TestServiceChaosUnderResilience is the serving layer's fault drill:
// a resilience-laddered service with per-request deadlines and a tiny
// shedding queue, hammered by concurrent clients mixing healthy and
// NaN-poisoned right-hand sides. Run under -race. The invariants:
//
//   - no request outlives its deadline by more than scheduling slack,
//   - poisoned inputs fail fast with ErrNonFiniteRHS and never poison a
//     batch-mate's answer,
//   - healthy solves come back correct,
//   - the rung histogram shows up in Stats once ladder solves ran.
func TestServiceChaosUnderResilience(t *testing.T) {
	const deadline = 250 * time.Millisecond

	inj := faultsim.New(101)
	a := inj.WellConditioned(120, 0.05)

	cfg := DefaultConfig()
	cfg.Options.Resilience = &resilience.Policy{RungDeadline: 50 * time.Millisecond}
	cfg.SolveTimeout = deadline
	cfg.MaxBatch = 4
	cfg.QueueCap = 8
	cfg.MaxDelay = 100 * time.Microsecond
	svc := New(cfg)
	defer svc.Close()

	h, err := svc.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.Rows)
	for i := range want {
		want[i] = 1
	}
	good := make([]float64, a.Rows)
	a.MatVec(good, want)

	const clients = 8
	const perClient = 25
	var solved, poisoned, shed atomic.Uint64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				poison := (c+k)%5 == 4 // every fifth request is poisoned
				b := append([]float64(nil), good...)
				if poison {
					b[(c*perClient+k)%len(b)] = math.NaN()
				}
				t0 := time.Now()
				x, err := svc.SolveCtx(context.Background(), h, b)
				if d := time.Since(t0); d > deadline+time.Second {
					t.Errorf("request ran %v past its %v deadline", d-deadline, deadline)
				}
				switch {
				case poison:
					if !errors.Is(err, resilience.ErrNonFiniteRHS) {
						t.Errorf("poisoned request: got %v, want ErrNonFiniteRHS", err)
					}
					poisoned.Add(1)
				case errors.Is(err, ErrOverloaded) || errors.Is(err, context.DeadlineExceeded):
					// Legitimate under deliberate overpressure (tiny queue,
					// tiny deadline); counted, not failed.
					shed.Add(1)
				case err != nil:
					t.Errorf("healthy request failed: %v", err)
				default:
					for i := range x {
						if e := math.Abs(x[i] - want[i]); e > 1e-6 {
							t.Errorf("healthy solve entry %d off by %g", i, e)
							break
						}
					}
					solved.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	if solved.Load() == 0 {
		t.Fatal("no healthy request ever solved")
	}
	if poisoned.Load() == 0 {
		t.Fatal("chaos mix produced no poisoned requests")
	}
	st := svc.Stats()
	if len(st.RungHist) == 0 {
		t.Fatal("rung histogram empty after laddered solves")
	}
	var rungTotal uint64
	for _, c := range st.RungHist {
		rungTotal += c
	}
	if rungTotal == 0 {
		t.Fatal("rung histogram all zero after laddered solves")
	}
	if st.RungNames[resilience.RungStatic] != "static" {
		t.Fatalf("rung names %v", st.RungNames)
	}
	t.Logf("chaos: solved=%d poisoned=%d shed/deadline=%d deadline-miss=%d rungs=%v",
		solved.Load(), poisoned.Load(), shed.Load(), st.DeadlineMisses, st.RungHist)
}

// TestSolveTimeoutBoundsTheWait wedges the solve queue behind an
// artificially slow direct path and checks the per-request deadline cuts
// the caller loose with context.DeadlineExceeded, counted in stats.
func TestSolveTimeoutBoundsTheWait(t *testing.T) {
	var m Metrics
	fb := &fakeBackend{gate: make(chan struct{}), entered: make(chan struct{}, 1)}
	bat := newBatcher(fb, 1, 0, 64, &m)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); bat.submit(context.Background(), []float64{0}) }()
	<-fb.entered // cutter wedged inside the first batch

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := bat.submit(ctx, []float64{1})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("deadline wait took %v", d)
	}
	fb.release()
	wg.Wait()
}
