package fleetha

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesp/internal/fleetrpc"
	"gesp/internal/serve"
)

// slowShard is the test's straggler: it delays every solve on the
// wrapped shard by *delay nanoseconds.
type slowShard struct {
	fleetrpc.Shard
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

// TestControllerLoopOverLocalShards runs the leader's control loop —
// signal gathering, the pure controller, decision application — over
// in-process shards, no processes and no election: stragglers breach
// the SLO, the loop must promote the hot pattern and the fleet widen
// it, and once the straggle clears demote it again. The same trace
// TestHASLOBreach asserts against real processes.
func TestControllerLoopOverLocalShards(t *testing.T) {
	delay := new(atomic.Int64)
	svcs := []*serve.Service{serve.New(serve.DefaultConfig()), serve.New(serve.DefaultConfig())}
	shards := fleetrpc.LocalShards(svcs...)
	for i, sh := range shards {
		shards[i] = slowShard{Shard: sh, delay: delay}
	}
	fcfg := fleetrpc.DefaultConfig(shards)
	fcfg.ProbeInterval = 10 * time.Millisecond
	fl, err := fleetrpc.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		fl.Close()
		for _, svc := range svcs {
			svc.Close()
		}
	})

	// Wide SLO margins, as in TestHASLOBreach: the histogram's
	// power-of-two buckets put a 50ms straggle at 65.5ms and a healthy
	// solve, even under -race, far below the 10ms clear threshold.
	n := &Node{
		cfg: Config{
			Peers: []string{"self"},
			Logf:  t.Logf,
			Controller: &ControllerConfig{
				SLO:              20 * time.Millisecond,
				Window:           40 * time.Millisecond,
				BreachAfter:      1,
				ClearAfter:       1,
				CooldownWindows:  1,
				MaxBoost:         1,
				HotK:             1,
				MinWindowSamples: 1,
			},
		},
		role:  Leader,
		fleet: fl,
	}
	n.mu.Lock()
	n.startControllerLocked(fl, time.Now())
	n.mu.Unlock()

	a, b, _ := testbedSystem(t, "SHERMAN4", 0)
	ctx := context.Background()
	h, err := fl.Submit(ctx, fleetrpc.WireMatrix(a))
	if err != nil {
		t.Fatal(err)
	}
	delay.Store(int64(50 * time.Millisecond))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				fl.Solve(ctx, h, b) //gesp:errok — load generator; failures surface via trace assertions
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	start := time.Now()
	awaitAction := func(act Action) Decision {
		t.Helper()
		for {
			n.controllerTick(time.Now())
			for _, d := range n.Trace() {
				if d.Action == act {
					return d
				}
			}
			if time.Since(start) > 4*time.Second {
				t.Fatalf("no %s within 4s; trace: %+v", act, n.Trace())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if d := awaitAction(ActPromote); d.Window > 10 {
		t.Fatalf("promote took until window %d, want within 10; trace: %+v", d.Window, n.Trace())
	}
	if got := fl.Boosted(); len(got) != 1 || got[0] != h.Key.Pattern {
		t.Fatalf("fleet boosted %v after the promote, want the submitted pattern %#x", got, h.Key.Pattern)
	}
	delay.Store(0)
	awaitAction(ActDemote)

	var acts []Action
	for _, d := range n.Trace() {
		acts = append(acts, d.Action)
	}
	if len(acts) != 2 || acts[0] != ActPromote || acts[1] != ActDemote {
		t.Fatalf("trace %v, want promote, demote", acts)
	}
	if got := fl.Boosted(); len(got) != 0 {
		t.Fatalf("fleet still boosts %v after the demote", got)
	}
	if st := fl.Stats(); st.Promotions != 1 || st.Demotions != 1 {
		t.Fatalf("fleet saw promotions=%d demotions=%d, want 1/1", st.Promotions, st.Demotions)
	}
}
