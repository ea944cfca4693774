package fleetrpc

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesp/internal/serve"
)

// slowShard is the tests' straggler: it delays every solve on the
// wrapped shard by *delay nanoseconds, settable while traffic runs.
type slowShard struct {
	Shard
	delay *atomic.Int64
}

func (s slowShard) Solve(ctx context.Context, h serve.Handle, b []float64) ([]float64, error) {
	if d := time.Duration(s.delay.Load()); d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return s.Shard.Solve(ctx, h, b)
}

// slowed wraps every shard in a slowShard and returns the delay knobs.
func slowed(shards []Shard) ([]Shard, []*atomic.Int64) {
	out := make([]Shard, len(shards))
	delays := make([]*atomic.Int64, len(shards))
	for i, sh := range shards {
		delays[i] = new(atomic.Int64)
		out[i] = slowShard{Shard: sh, delay: delays[i]}
	}
	return out, delays
}

// factorRuns sums how many numeric factorizations the services
// actually executed. Handoffs and cache hits leave it unchanged, which
// is how the drain tests prove a rebalance re-factored nothing.
func factorRuns(svcs []*serve.Service) int64 {
	var runs int64
	for _, svc := range svcs {
		runs += svc.Stats().Phases[serve.PhaseFactor.String()].Count
	}
	return runs
}

// TestFleetReplicationSharesSymbolic: populating a replica offers it
// the owner's exported analysis first. A replica in the owner's address
// space adopts it and performs zero symbolic analyses of its own; one
// behind a wire has nothing to adopt and analyzes for itself. Either
// way it ends up holding the factors.
func TestFleetReplicationSharesSymbolic(t *testing.T) {
	forEachKind(t, func(t *testing.T, kind string) {
		shards, svcs := testShards(t, kind, 3, serve.DefaultConfig())
		cfg := quietConfig(shards)
		cfg.Replication = 2
		f := newTestFleet(t, cfg)

		sys := testbedSystem(t, "SHERMAN4", 0)
		h, err := f.Submit(bg, WireMatrix(sys.a))
		if err != nil {
			t.Fatal(err)
		}
		var ids [2]int
		if n := f.Ring().ReplicasInto(ids[:], h.Key.Pattern); n != 2 {
			t.Fatalf("placement size %d, want 2", n)
		}
		rst := svcs[ids[1]].Stats()
		wantImports, wantMisses := uint64(1), uint64(0)
		if kind == "http" {
			wantImports, wantMisses = 0, 1
		}
		if rst.SymbolicImports != wantImports || rst.SymbolicMisses != wantMisses {
			t.Fatalf("replica symbolic imports/misses = %d/%d, want %d/%d",
				rst.SymbolicImports, rst.SymbolicMisses, wantImports, wantMisses)
		}
		if rst.FactorEntries != 1 {
			t.Fatalf("replica holds %d factors, want 1", rst.FactorEntries)
		}
	})
}

// TestFleetHedgingBeatsStraggler: with the home shard straggling and
// the pattern replicated, the after-delay hedge races the replica and
// the healthy replica wins.
func TestFleetHedgingBeatsStraggler(t *testing.T) {
	base, _ := testShards(t, "local", 3, serve.DefaultConfig())
	shards, delays := slowed(base)
	cfg := quietConfig(shards)
	cfg.Replication = 2
	cfg.HedgeAfter = time.Millisecond
	f := newTestFleet(t, cfg)

	sys := testbedSystem(t, "SHERMAN4", 0)
	h, err := f.Submit(bg, WireMatrix(sys.a))
	if err != nil {
		t.Fatal(err)
	}
	delays[f.Owner(h.Key.Pattern)].Store(int64(50 * time.Millisecond))
	t0 := time.Now()
	for i := 0; i < 8; i++ {
		x, err := f.Solve(bg, h, sys.b)
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, x, sys.want)
	}
	st := f.Stats()
	if st.Hedged == 0 || st.HedgeWins == 0 {
		t.Fatalf("a 50ms straggler against a 1ms hedge delay: hedged=%d wins=%d", st.Hedged, st.HedgeWins)
	}
	if el := time.Since(t0); el > 8*40*time.Millisecond {
		t.Fatalf("8 hedged solves took %v: the straggler, not the replica, set the latency", el)
	}
}

// TestFleetCloseRejects: a closed fleet rejects new work cleanly and
// leaves its shards alone.
func TestFleetCloseRejects(t *testing.T) {
	shards, svcs := testShards(t, "local", 2, serve.DefaultConfig())
	f, err := New(quietConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	sys := testbedSystem(t, "SHERMAN4", 0)
	h, err := f.Submit(bg, WireMatrix(sys.a))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, err := f.Solve(bg, h, sys.b); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("solve on closed fleet: %v, want ErrClosed", err)
	}
	if _, err := f.Submit(bg, WireMatrix(sys.a)); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("submit on closed fleet: %v, want ErrClosed", err)
	}
	f.Close() // idempotent
	if _, err := svcs[f.Owner(h.Key.Pattern)].Solve(h, sys.b); err != nil {
		t.Fatalf("closing the fleet must not close its shards: %v", err)
	}
}

// drainConfig is a quiet router whose retry budget comfortably
// outlasts a drain: requests that race the handoff back off and land on
// the post-drain ring instead of failing.
func drainConfig(shards []Shard) Config {
	cfg := quietConfig(shards)
	cfg.Retry = Backoff{Attempts: 8, Base: 2 * time.Millisecond, Max: 50 * time.Millisecond}
	return cfg
}

type poolEntry struct {
	sys system
	h   serve.Handle
}

// warmPool submits and solves two value variants of each named system.
func warmPool(t *testing.T, f *Fleet, names []string) []poolEntry {
	t.Helper()
	var pool []poolEntry
	for _, name := range names {
		for v := int64(0); v < 2; v++ {
			sys := testbedSystem(t, name, v)
			h, err := f.Submit(bg, WireMatrix(sys.a))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Solve(bg, h, sys.b); err != nil { // warm every factor
				t.Fatal(err)
			}
			pool = append(pool, poolEntry{sys, h})
		}
	}
	return pool
}

// hammerAcross runs closed-loop workers against the pool while mid
// runs, and returns the first request error. One request in four is an
// identical resubmission when resubmit is set: it must ride the
// value-hit fast path and never fail across the ring swap.
func hammerAcross(f *Fleet, pool []poolEntry, resubmit bool, mid func()) error {
	stop := make(chan struct{})
	errc := make(chan error, 1)
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := pool[rng.Intn(len(pool))]
				var err error
				if resubmit && rng.Intn(4) == 0 {
					_, err = f.Submit(bg, WireMatrix(e.sys.a))
				} else {
					_, err = f.Solve(bg, e.h, e.sys.b)
				}
				if err != nil {
					select {
					case errc <- err:
					default:
					}
					return
				}
			}
		}(int64(100 + c))
	}
	time.Sleep(20 * time.Millisecond) // let the load reach steady state
	mid()
	time.Sleep(20 * time.Millisecond) // keep hammering the post-drain ring
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		return err
	default:
		return nil
	}
}

// TestFleetDrainZeroFailureZeroRefactor is the drain acceptance test
// for shards that share the router's address space: under concurrent
// load, draining a shard loses no request and — the cache-handoff
// guarantee — causes zero new numeric factorizations.
func TestFleetDrainZeroFailureZeroRefactor(t *testing.T) {
	shards, svcs := testShards(t, "local", 4, serve.DefaultConfig())
	f := newTestFleet(t, drainConfig(shards))
	pool := warmPool(t, f, []string{"SHERMAN4", "GEMAT11", "WEST2021"})
	runsWarm := factorRuns(svcs)
	if runsWarm == 0 {
		t.Fatal("warmup ran no factorizations?")
	}
	target := f.Owner(pool[0].h.Key.Pattern)

	if err := hammerAcross(f, pool, false, func() {
		if err := f.Drain(bg, target); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatalf("request failed across the drain: %v", err)
	}

	// Every pattern must still solve, on the shrunken ring, without a
	// single new factorization: the drained shard's factors moved.
	for _, e := range pool {
		x, err := f.Solve(bg, e.h, e.sys.b)
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, x, e.sys.want)
	}
	f.Close() // waits out the background re-replication
	st := f.Stats()
	if runs := factorRuns(svcs); runs != runsWarm {
		t.Fatalf("drain refactored: %d factor runs post-drain, %d at warmup", runs, runsWarm)
	}
	if st.Drains != 1 || st.HandedOff == 0 {
		t.Fatalf("drain accounting: drains=%d handedOff=%d", st.Drains, st.HandedOff)
	}
	if st.Failed != 0 {
		t.Fatalf("%d failed requests during drain, want 0", st.Failed)
	}
	if m := st.Members[target]; m.State != "dead" {
		t.Fatalf("drained member is %s, want dead", m.State)
	}
	if d := svcs[target].QueueDepth(); d != 0 {
		t.Fatalf("drained shard still holds %d queued requests", d)
	}
}

// TestFleetDrainRacesSubmitSolveHeal races Drain against concurrent
// Submits and Solves. The ample subtest proves the cache handoff:
// identical resubmissions and post-drain solves cause zero new numeric
// factorizations. The eviction-storm subtest forces the expired-handle
// heal path throughout and proves it still loses no request across the
// drain's ring swap.
func TestFleetDrainRacesSubmitSolveHeal(t *testing.T) {
	run := func(t *testing.T, scfg serve.Config, replication int, wantRefactors bool) {
		shards, svcs := testShards(t, "local", 4, scfg)
		cfg := drainConfig(shards)
		cfg.Replication = replication
		f := newTestFleet(t, cfg)
		pool := warmPool(t, f, []string{"SHERMAN4", "GEMAT11", "WEST2021"})
		runsWarm := factorRuns(svcs)
		target := f.Owner(pool[0].h.Key.Pattern)

		if err := hammerAcross(f, pool, true, func() {
			if err := f.Drain(bg, target); err != nil {
				t.Error(err)
			}
		}); err != nil {
			t.Fatalf("request failed across the drain: %v", err)
		}
		f.Close()
		st := f.Stats()
		if st.Failed != 0 {
			t.Fatalf("%d failed requests during drain, want 0", st.Failed)
		}
		if runs := factorRuns(svcs); !wantRefactors && runs != runsWarm {
			t.Fatalf("drain refactored: %d factor runs post-drain, %d at warmup", runs, runsWarm)
		}
		if wantRefactors && st.Resubmits == 0 {
			t.Fatal("eviction storm never exercised the heal path")
		}
	}

	t.Run("ample-cache-zero-refactor", func(t *testing.T) {
		run(t, serve.DefaultConfig(), 1, false)
	})
	// Replicated: the leaver's entries — owned and replica alike — land
	// on the one member each placement gains, so keeping the width costs
	// no factorization either.
	t.Run("replicated-zero-refactor", func(t *testing.T) {
		run(t, serve.DefaultConfig(), 2, false)
	})
	t.Run("eviction-storm-heals", func(t *testing.T) {
		// Two factor slots per shard against six live systems: most
		// solves find their factors evicted and must heal via resubmit.
		scfg := serve.DefaultConfig()
		scfg.MaxFactors = 2
		run(t, scfg, 1, true)
	})
}
