// Process-level HA chaos tests: real coordinator and shard processes,
// real SIGKILL. The external test package breaks the faultsim →
// fleetha import cycle, and TestMain's two re-exec hooks let this test
// binary become either child kind.
package fleetha_test

import (
	"context"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesp/internal/faultsim"
	"gesp/internal/fleetha"
	"gesp/internal/fleetrpc"
	"gesp/internal/matgen"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

func TestMain(m *testing.M) {
	fleetha.RunCoordinatorIfChild()
	fleetrpc.RunShardIfChild()
	os.Exit(m.Run())
}

type haSystem struct {
	a    *sparse.CSC
	b    []float64
	want []float64
	h    serve.Handle
}

// haChaosCluster spawns real shard processes, then coordinator
// processes born configured by cfg over them, and returns both proc
// sets plus an HA client aimed at every coordinator.
func haChaosCluster(t *testing.T, nShards, nCoords int, cfg fleetha.ChildConfig) (*faultsim.ProcSet, *faultsim.ProcSet, *fleetha.Client) {
	t.Helper()
	shards, err := fleetrpc.SpawnShards(nShards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shards.Close)
	cfg.Shards = shards.Addrs()
	coords, err := fleetha.SpawnCoordinators(nCoords, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coords.Close)
	cli, err := fleetha.NewClient(fleetha.ClientConfig{
		Coordinators:   coords.Addrs(),
		Retry:          fleetrpc.Backoff{Attempts: 12, Base: 10 * time.Millisecond, Max: 250 * time.Millisecond},
		AttemptTimeout: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return shards, coords, cli
}

// awaitLeader polls coordinator statuses until one claims leadership,
// returning its index in addrs.
func awaitLeader(t *testing.T, cli *fleetha.Client, addrs []string, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, addr := range addrs {
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			st, err := cli.Status(ctx, addr)
			cancel()
			if err == nil && st.Role == fleetha.RoleLeader {
				return i
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("no coordinator claimed leadership")
	return -1
}

// awaitLeaderExcept is awaitLeader skipping a (killed) index.
func awaitLeaderExcept(t *testing.T, cli *fleetha.Client, addrs []string, skip int, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, addr := range addrs {
			if i == skip {
				continue
			}
			ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
			st, err := cli.Status(ctx, addr)
			cancel()
			if err == nil && st.Role == fleetha.RoleLeader {
				return i
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no surviving coordinator took over")
	return -1
}

// submitSystems pushes the named testbed systems through the HA client
// and warms each factor cache with one solve.
func submitSystems(t *testing.T, cli *fleetha.Client, names []string) []haSystem {
	t.Helper()
	ctx := context.Background()
	var pool []haSystem
	for _, name := range names {
		gen, ok := matgen.Lookup(name)
		if !ok {
			t.Fatalf("testbed matrix %s missing", name)
		}
		a := gen.Generate(0.25)
		want := make([]float64, a.Rows)
		for i := range want {
			want[i] = 1
		}
		b := make([]float64, a.Rows)
		a.MatVec(b, want)
		h, err := cli.Submit(ctx, a)
		if err != nil {
			t.Fatalf("%s submit: %v", name, err)
		}
		if _, err := cli.Solve(ctx, h, b); err != nil {
			t.Fatalf("%s warm solve: %v", name, err)
		}
		pool = append(pool, haSystem{a: a, b: b, want: want, h: h})
	}
	return pool
}

// haHammer runs closed-loop solvers through the HA client until stop
// closes, counting solves and recording the first error.
func haHammer(cli *fleetha.Client, pool []haSystem, workers int, stop chan struct{}) (*sync.WaitGroup, *atomic.Uint64, *atomic.Value) {
	var wg sync.WaitGroup
	var solves atomic.Uint64
	var firstErr atomic.Value
	for w := 0; w < workers; w++ {
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
				sys := pool[rng.Intn(len(pool))]
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				_, err := cli.Solve(ctx, sys.h, sys.b)
				cancel()
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				solves.Add(1)
			}
		}(int64(4000 + w))
	}
	return &wg, &solves, &firstErr
}

// TestHALeaderKill is the acceptance chaos test for coordinator HA:
// SIGKILL the leader coordinator under load. The survivors must elect
// a replacement holding every registry entry, and the client's
// redirect-and-retry ladder must absorb the gap with zero visible
// failures.
func TestHALeaderKill(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos: skipped in -short")
	}
	_, coords, cli := haChaosCluster(t, 3, 3, fleetha.ChildConfig{
		LeaseMS:     200,
		HeartbeatMS: 50,
		Replication: 2,
	})
	addrs := coords.Addrs()
	leader := awaitLeader(t, cli, addrs, 10*time.Second)
	pool := submitSystems(t, cli, []string{"SHERMAN4", "GEMAT11"})

	ctx := context.Background()
	stCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	preStatus, err := cli.Status(stCtx, addrs[leader])
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if preStatus.RegistryLen != len(pool) {
		t.Fatalf("leader registry has %d entries before kill, want %d", preStatus.RegistryLen, len(pool))
	}

	stop := make(chan struct{})
	wg, solves, firstErr := haHammer(cli, pool, 4, stop)
	time.Sleep(200 * time.Millisecond)

	killAt := time.Now()
	if err := coords.Procs[leader].Kill(); err != nil {
		t.Fatal(err)
	}
	next := awaitLeaderExcept(t, cli, addrs, leader, 15*time.Second)
	failover := time.Since(killAt)

	time.Sleep(300 * time.Millisecond) // keep hammering the new leader
	close(stop)
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatalf("client-visible failure across leader SIGKILL: %v", err)
	}
	if solves.Load() == 0 {
		t.Fatal("load loop never solved")
	}
	t.Logf("failover: node %d -> node %d in %v (%d solves under load)", leader, next, failover, solves.Load())

	// zero lost registry entries: the new leader holds every handle...
	stCtx, cancel = context.WithTimeout(ctx, 2*time.Second)
	postStatus, err := cli.Status(stCtx, addrs[next])
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if postStatus.RegistryLen != len(pool) {
		t.Fatalf("registry lost entries across failover: %d, want %d", postStatus.RegistryLen, len(pool))
	}
	if postStatus.Term <= preStatus.Term {
		t.Fatalf("takeover term %d not above killed leader's term %d", postStatus.Term, preStatus.Term)
	}
	// ...and every pre-kill handle still solves correctly.
	for _, sys := range pool {
		x, err := cli.Solve(ctx, sys.h, sys.b)
		if err != nil {
			t.Fatalf("post-failover solve: %v", err)
		}
		if e := sparse.RelErrInf(x, sys.want); e > 2e-3 {
			t.Fatalf("post-failover solution error %g", e)
		}
	}
	if failover > 10*time.Second {
		t.Fatalf("failover detection took %v", failover)
	}
}
