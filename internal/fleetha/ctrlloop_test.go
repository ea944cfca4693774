package fleetha

import (
	"context"
	"fmt"
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

// localScaler provisions in-process shards and records what it was
// asked to retire.
type localScaler struct {
	mu      sync.Mutex
	svcs    []*serve.Service
	spawned []string
	drained []string
}

func (s *localScaler) Spawn() (fleetrpc.Shard, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	svc := serve.New(serve.DefaultConfig())
	s.svcs = append(s.svcs, svc)
	addr := fmt.Sprintf("spawned-%d", len(s.spawned))
	s.spawned = append(s.spawned, addr)
	return fleetrpc.NewLocalShard(addr, svc), nil
}

func (s *localScaler) Drain(addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drained = append(s.drained, addr)
	return nil
}

// TestControllerLoopOverLocalShards runs the leader's control loop —
// signal gathering, the pure controller, decision application — over
// in-process shards and a fake Scaler, no processes and no election:
// stragglers breach the SLO, the loop must promote the hot pattern,
// then (queues still deep at max boost) spawn a shard through the
// Scaler and add it to the fleet, and once the straggle clears drain
// exactly that shard. The same trace TestHAControllerSpawn asserts
// against real processes.
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
	scaler := &localScaler{}
	t.Cleanup(func() {
		fl.Close()
		for _, svc := range append(svcs, scaler.svcs...) {
			svc.Close()
		}
	})

	// Wide SLO margins, as in TestHAControllerSpawn: the histogram's
	// power-of-two buckets put a 50ms straggle at 65.5ms and a healthy
	// solve, even under -race, far below the 10ms clear threshold.
	n := &Node{
		cfg: Config{
			Peers:  []string{"self"},
			Scaler: scaler,
			Logf:   t.Logf,
			Controller: &ControllerConfig{
				SLO:              20 * time.Millisecond,
				Window:           40 * time.Millisecond,
				BreachAfter:      1,
				ClearAfter:       1,
				CooldownWindows:  1,
				MaxBoost:         1,
				HotK:             1,
				SpawnQueueDepth:  1, // any queue at max boost escalates
				MaxShards:        3,
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
	if d := awaitAction(ActSpawn); d.Window > 10 {
		t.Fatalf("spawn took until window %d, want within 10; trace: %+v", d.Window, n.Trace())
	}
	if got := fl.Addrs(); len(got) != 3 || got[2] != "spawned-0" {
		t.Fatalf("spawned shard never joined the fleet: members %v", got)
	}
	delay.Store(0)
	awaitAction(ActDrain)

	var acts []Action
	for _, d := range n.Trace() {
		acts = append(acts, d.Action)
	}
	if len(acts) < 3 || acts[0] != ActPromote || acts[1] != ActSpawn || acts[2] != ActDrain {
		t.Fatalf("trace %v, want promote, spawn, drain", acts)
	}
	if len(scaler.drained) != 1 || scaler.drained[0] != "spawned-0" {
		t.Fatalf("scaler retired %v, want exactly the shard it spawned", scaler.drained)
	}
	if m := fl.Members()[2]; m.State != "dead" {
		t.Fatalf("drained shard is %s in the fleet, want dead", m.State)
	}
	if st := fl.Stats(); st.Promotions != 1 || st.ScaleUps != 1 || st.Drains != 1 {
		t.Fatalf("fleet saw promotions=%d scale-ups=%d drains=%d, want 1/1/1", st.Promotions, st.ScaleUps, st.Drains)
	}
}
