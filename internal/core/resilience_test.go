package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"gesp/internal/faultsim"
	"gesp/internal/resilience"
)

// TestResilienceHappyPathStaysOnRungZero runs a healthy system through
// the full pipeline with a ladder attached: the solve must finish on the
// static rung with no escalations charged to the stats.
func TestResilienceHappyPathStaysOnRungZero(t *testing.T) {
	inj := faultsim.New(11)
	a := inj.WellConditioned(80, 0.08)
	opts := DefaultOptions()
	opts.Resilience = &resilience.Policy{}
	s, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := onesSolution(a.Rows)
	b := make([]float64, a.Rows)
	a.MatVec(b, want)
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if e := math.Abs(x[i] - want[i]); e > 1e-8 {
			t.Fatalf("x[%d] off by %g", i, e)
		}
	}
	st := s.Stats()
	if !st.Converged || st.LastRung != resilience.RungStatic || st.Escalations != 0 {
		t.Fatalf("happy path: converged=%v rung=%v escalations=%d", st.Converged, st.LastRung, st.Escalations)
	}
	tr := s.Escalation()
	if tr == nil || tr.FinalRung != resilience.RungStatic || tr.Escalated() {
		t.Fatalf("trace %+v, want un-escalated static solve", tr)
	}
}

// TestResilienceEscalationRecordedInStats corrupts the cached factors
// after factorization; the ladder must detect the non-finite numerics,
// climb to the GEPP rung, recover, and charge the escalation to the
// solver statistics.
func TestResilienceEscalationRecordedInStats(t *testing.T) {
	inj := faultsim.New(12)
	a := inj.WellConditioned(60, 0.1)
	opts := DefaultOptions()
	opts.Resilience = &resilience.Policy{}
	s, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	inj.CorruptFactors(s.Factors(), 2)

	want := onesSolution(a.Rows)
	b := make([]float64, a.Rows)
	a.MatVec(b, want)
	x, err := s.Solve(b)
	if err != nil {
		t.Fatalf("ladder did not recover from corrupt factors: %v", err)
	}
	for i := range x {
		if e := math.Abs(x[i] - want[i]); e > 1e-6 {
			t.Fatalf("recovered x[%d] off by %g", i, e)
		}
	}
	st := s.Stats()
	if st.LastRung != resilience.RungGEPP {
		t.Fatalf("LastRung = %v, want gepp", st.LastRung)
	}
	if st.Escalations == 0 || st.FallbackTime <= 0 {
		t.Fatalf("escalation not recorded: escalations=%d fallback=%v", st.Escalations, st.FallbackTime)
	}
	if !st.Converged || st.Berr > math.Sqrt(2e-16) {
		t.Fatalf("recovery berr %g converged=%v", st.Berr, st.Converged)
	}
}

// TestResilienceBatchIsolatesPoisonedVector batches two healthy
// right-hand sides around a NaN-poisoned one: the poisoned vector must
// fail alone with ErrNonFiniteRHS while its batch-mates solve cleanly.
func TestResilienceBatchIsolatesPoisonedVector(t *testing.T) {
	inj := faultsim.New(13)
	a := inj.WellConditioned(50, 0.1)
	opts := DefaultOptions()
	opts.Resilience = &resilience.Policy{}
	s, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := onesSolution(a.Rows)
	good := make([]float64, a.Rows)
	a.MatVec(good, want)
	bad := append([]float64(nil), good...)
	inj.PoisonRHS(bad, 1, true)

	bs := [][]float64{good, bad, append([]float64(nil), good...)}
	xs, errs, err := s.SolveBatchCtx(context.Background(), bs)
	if err != nil {
		t.Fatalf("batch-level failure: %v", err)
	}
	if errs == nil || !errors.Is(errs[1], resilience.ErrNonFiniteRHS) {
		t.Fatalf("poisoned vector error = %v, want ErrNonFiniteRHS", errs)
	}
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("healthy batch-mates failed: %v, %v", errs[0], errs[2])
	}
	for _, r := range []int{0, 2} {
		for i := range xs[r] {
			if e := math.Abs(xs[r][i] - want[i]); e > 1e-8 {
				t.Fatalf("batch-mate %d entry %d off by %g", r, i, e)
			}
		}
	}
}

// TestResilienceSolveHonorsContext cancels before the solve; the ladder
// path must surface the context error rather than solving on.
func TestResilienceSolveHonorsContext(t *testing.T) {
	inj := faultsim.New(14)
	a := inj.WellConditioned(40, 0.1)
	opts := DefaultOptions()
	opts.Resilience = &resilience.Policy{}
	s, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	b[0] = 1
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveCtx(ctx, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestResilienceUnrecoveredKeepsIterateAfterContextEnds: a ladder that
// runs out of rungs as its context ends (here OnTrace cancels it) still
// fails with ErrUnrecovered and hands back its best iterate, in SolveCtx
// and per vector in SolveBatchCtx.
func TestResilienceUnrecoveredKeepsIterateAfterContextEnds(t *testing.T) {
	a := faultsim.New(7).NearSingular(40, 1e-10)
	b := make([]float64, a.Rows)
	a.MatVec(b, onesSolution(a.Rows))
	for _, batch := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		opts := DefaultOptions()
		opts.Equilibrate, opts.RowPermute = false, false // keep the tiny pivot tiny
		opts.Resilience = &resilience.Policy{MaxRung: resilience.RungExtraPrecision, OnTrace: func(*resilience.Escalation) { cancel() }}
		s, err := New(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		var x []float64
		if batch {
			xs, errs, berr := s.SolveBatchCtx(ctx, [][]float64{b})
			if berr != nil || errs == nil {
				t.Fatalf("batch: batch error %v, vector errors %v; want the vector's ErrUnrecovered", berr, errs)
			}
			x, err = xs[0], errs[0]
		} else {
			x, err = s.SolveCtx(ctx, b)
		}
		if !errors.Is(err, resilience.ErrUnrecovered) || x == nil {
			t.Fatalf("batch=%v: err %v, iterate %v; want ErrUnrecovered with the iterate", batch, err, x != nil)
		}
		if ctx.Err() == nil {
			t.Fatal("OnTrace did not run")
		}
	}
}

// TestResilienceBlockRung0Deadline: core runs rung 0 on a whole block of
// right-hand sides, so Policy.RungDeadline bounds the block's refinement;
// when it passes, every vector climbs on its own and converges.
func TestResilienceBlockRung0Deadline(t *testing.T) {
	a := faultsim.New(25).NearSingular(150, 1e-12)
	opts := DefaultOptions()
	opts.Equilibrate, opts.RowPermute = false, false // keep the tiny pivot tiny
	var traces []resilience.Escalation
	opts.Resilience = &resilience.Policy{RungDeadline: time.Nanosecond, OnTrace: func(tr *resilience.Escalation) {
		c := *tr
		c.Steps = append([]resilience.Step(nil), tr.Steps...)
		traces = append(traces, c)
	}}
	s, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	bs := randomBatch(s, 8, 5)
	xs, err := s.SolveBatch(bs)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != len(bs) {
		t.Fatalf("%d traces for %d vectors", len(traces), len(bs))
	}
	for r, tr := range traces {
		if len(tr.Steps) < 2 || tr.Steps[0].Iterations != 0 || tr.Steps[1].Trigger != resilience.TriggerDeadline || !tr.Converged {
			t.Fatalf("vector %d: %s; want rung 0 cut by the deadline, then a climb to convergence", r, &tr)
		}
	}
	if st := s.Stats(); st.Escalations != len(bs) || !st.Converged {
		t.Fatalf("stats: %d escalations, converged %v; want %d, true", st.Escalations, st.Converged, len(bs))
	}
	for r, b := range bs {
		x, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(x, xs[r]) {
			t.Fatalf("vector %d differs from its own Solve", r)
		}
	}
}

// TestCondEstRecordsConvergence checks the satellite wiring: CondEst
// must stash both the estimate and the estimator's convergence flag.
func TestCondEstRecordsConvergence(t *testing.T) {
	inj := faultsim.New(15)
	a := inj.WellConditioned(40, 0.1)
	s, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	est := s.CondEst()
	st := s.Stats()
	if est <= 0 || st.CondEst != est {
		t.Fatalf("CondEst %g not recorded in stats (%g)", est, st.CondEst)
	}
	if !st.CondEstConverged {
		t.Fatal("Hager estimator did not converge on a small well-conditioned system")
	}
}
