package fleetrpc

import (
	"context"
	"errors"
	"math/rand"
	"slices"
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
// actually executed; cache hits leave it unchanged.
func factorRuns(svcs []*serve.Service) int64 {
	var runs int64
	for _, svc := range svcs {
		runs += svc.Stats().Phases[serve.PhaseFactor.String()].Count
	}
	return runs
}

// TestFleetReplicaHoldsFactors: a submit populates the pattern's
// replica as well as its owner, so a failover target already holds the
// factors.
func TestFleetReplicaHoldsFactors(t *testing.T) {
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
		if n := svcs[ids[1]].Stats().FactorEntries; n != 1 {
			t.Fatalf("replica holds %d factors, want 1", n)
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

// TestFleetDrainZeroFailure is the drain acceptance test, over both
// shard kinds: under concurrent load, draining a shard loses no
// request, every system still solves on the shrunken ring, and the
// leaver's entries are re-homed from the registry.
func TestFleetDrainZeroFailure(t *testing.T) { forEachKind(t, testDrainZeroFailure) }

func testDrainZeroFailure(t *testing.T, kind string) {
	shards, svcs := testShards(t, kind, 4, serve.DefaultConfig())
	f := newTestFleet(t, drainConfig(shards))
	pool := warmPool(t, f, []string{"SHERMAN4", "GEMAT11", "WEST2021"})
	target := f.Owner(pool[0].h.Key.Pattern)

	if err := hammerAcross(f, pool, false, func() {
		if err := f.Drain(bg, target); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatalf("request failed across the drain: %v", err)
	}

	for _, e := range pool {
		x, err := f.Solve(bg, e.h, e.sys.b)
		if err != nil {
			t.Fatal(err)
		}
		checkSolution(t, x, e.sys.want)
	}
	// Close cuts a pending re-home short, so wait for it to have run.
	for deadline := time.Now().Add(10 * time.Second); f.Stats().Rereplicated == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the drain never re-homed the registry")
		}
	}
	f.Close()
	st := f.Stats()
	if st.Drains != 1 || st.Failed != 0 {
		t.Fatalf("drain accounting: drains=%d failed=%d", st.Drains, st.Failed)
	}
	if m := st.Members[target]; m.State != "dead" {
		t.Fatalf("drained member is %s, want dead", m.State)
	}
	if d := svcs[target].Stats().QueueDepth; d != 0 {
		t.Fatalf("drained shard still holds %d queued requests", d)
	}
}

// TestFleetDrainRacesSubmitSolveHeal races Drain against concurrent
// Submits and Solves over both shard kinds. The zero-refactor subtests
// hold the survivors to zero refactorizations of what they already
// held: with an ample cache the only new factorizations are the
// leaver's entries, each at most once on the member its placement
// gains. The eviction-storm subtest forces the expired-handle heal path
// throughout and proves it still loses no request across the drain's
// ring swap.
func TestFleetDrainRacesSubmitSolveHeal(t *testing.T) {
	run := func(t *testing.T, kind string, scfg serve.Config, replication int, storm bool) {
		shards, svcs := testShards(t, kind, 4, scfg)
		cfg := drainConfig(shards)
		cfg.Replication = replication
		f := newTestFleet(t, cfg)
		pool := warmPool(t, f, []string{"SHERMAN4", "GEMAT11", "WEST2021"})
		runsWarm := factorRuns(svcs)
		target := f.Owner(pool[0].h.Key.Pattern)
		held := 0 // pool entries whose placement includes the leaver
		for _, e := range pool {
			var ids [maxReplication]int
			if slices.Contains(ids[:f.Ring().ReplicasInto(ids[:replication], e.h.Key.Pattern)], target) {
				held++
			}
		}

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
		if runs := factorRuns(svcs) - runsWarm; !storm && runs > int64(held) {
			t.Fatalf("drain ran %d factorizations, want at most the leaver's %d entries: a survivor re-factored its own", runs, held)
		}
		if storm && st.Resubmits == 0 {
			t.Fatal("eviction storm never exercised the heal path")
		}
	}

	t.Run("ample-cache-zero-refactor", func(t *testing.T) {
		forEachKind(t, func(t *testing.T, kind string) { run(t, kind, serve.DefaultConfig(), 1, false) })
	})
	// Replicated: the leaver's entries — owned and replica alike — land
	// on the one member each placement gains.
	t.Run("replicated-zero-refactor", func(t *testing.T) {
		forEachKind(t, func(t *testing.T, kind string) { run(t, kind, serve.DefaultConfig(), 2, false) })
	})
	t.Run("eviction-storm-heals", func(t *testing.T) {
		// Two factor slots per shard against six live systems: most
		// solves find their factors evicted and must heal via resubmit.
		scfg := serve.DefaultConfig()
		scfg.MaxFactors = 2
		forEachKind(t, func(t *testing.T, kind string) { run(t, kind, scfg, 1, true) })
	})
}
