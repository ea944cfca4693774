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

// haChaosCluster spawns real shard and coordinator processes, wires
// the topology, and returns both proc sets plus an HA client aimed at
// every coordinator.
func haChaosCluster(t *testing.T, nShards, nCoords int, template fleetha.ConfigureRequest) (*faultsim.ProcSet, *faultsim.ProcSet, *fleetha.Client) {
	t.Helper()
	shards, err := fleetrpc.SpawnShards(nShards)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(shards.Close)
	coords, err := fleetha.SpawnCoordinators(nCoords)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coords.Close)

	template.Shards = shards.Addrs()
	if err := fleetha.ConfigureCoordinators(coords.Addrs(), template); err != nil {
		t.Fatal(err)
	}
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
	_, coords, cli := haChaosCluster(t, 3, 3, fleetha.ConfigureRequest{
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

// TestHASLOBreach drives the SLO controller end to end: a straggling
// shard pushes p999 over the SLO, the leader's controller must promote
// a hot pattern within the cooldown budget, and once the straggle
// clears it must demote — with the whole decision trace obeying the
// no-flap bound.
func TestHASLOBreach(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos: skipped in -short")
	}
	// Wide SLO margins: under -race a genuine solve can cost tens of
	// ms, and the latency histogram's power-of-two buckets mean the
	// post-clear p999 lands on 16.4ms or 32.8ms — the clear threshold
	// (SLO/2 = 35ms) must sit above both.
	ctrl := &fleetha.ControllerConfig{
		SLO:              70 * time.Millisecond,
		Window:           150 * time.Millisecond,
		ClearFraction:    0.5,
		BreachAfter:      2,
		ClearAfter:       2,
		CooldownWindows:  2,
		MaxBoost:         1,
		HotK:             1,
		MinWindowSamples: 5,
	}
	shards, coords, cli := haChaosCluster(t, 3, 1, fleetha.ConfigureRequest{
		LeaseMS:      200,
		HeartbeatMS:  50,
		Replication:  1, // promotion is what enables hedge/failover here
		HedgeAfterMS: 20,
		Controller:   ctrl,
	})
	awaitLeader(t, cli, coords.Addrs(), 10*time.Second)
	pool := submitSystems(t, cli, []string{"SHERMAN4"})

	stop := make(chan struct{})
	wg, _, firstErr := haHammer(cli, pool, 4, stop)
	time.Sleep(300 * time.Millisecond) // baseline traffic, below the SLO

	// straggle every shard: with replication 1 the owner is always slow,
	// so p999 must breach regardless of placement
	ctx := context.Background()
	for _, addr := range shards.Addrs() {
		sc := fleetrpc.NewClient(addr)
		if err := sc.SetChaosDelay(ctx, 100); err != nil {
			t.Fatal(err)
		}
	}
	breachAt := time.Now()
	// promote must land within the cooldown budget: BreachAfter windows
	// to trip plus one cooldown of slack
	budget := time.Duration(ctrl.BreachAfter+ctrl.CooldownWindows+2) * ctrl.Window * 4
	var promoted bool
	for time.Since(breachAt) < budget {
		tr, err := cli.Trace(ctx)
		if err == nil {
			for _, d := range tr.Decisions {
				if d.Action == fleetha.ActPromote {
					promoted = true
				}
			}
		}
		if promoted {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !promoted {
		tr, _ := cli.Trace(ctx)
		t.Fatalf("no promote within %v of the breach; trace: %+v", budget, tr.Decisions)
	}
	t.Logf("promoted %v after breach injection", time.Since(breachAt))

	// clear the straggle; the controller must demote once p999 falls
	for _, addr := range shards.Addrs() {
		sc := fleetrpc.NewClient(addr)
		if err := sc.SetChaosDelay(ctx, 0); err != nil {
			t.Fatal(err)
		}
	}
	clearAt := time.Now()
	var demoted bool
	for time.Since(clearAt) < 2*budget {
		tr, err := cli.Trace(ctx)
		if err == nil {
			for _, d := range tr.Decisions {
				if d.Action == fleetha.ActDemote {
					demoted = true
				}
			}
		}
		if demoted {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatalf("client-visible failure during SLO breach: %v", err)
	}
	if !demoted {
		tr, _ := cli.Trace(ctx)
		t.Fatalf("no demote within %v of the clear; trace: %+v", 2*budget, tr.Decisions)
	}
	t.Logf("demoted %v after clear", time.Since(clearAt))

	// no flapping: consecutive opposite-direction decisions must be at
	// least a cooldown apart in window counts
	tr, err := cli.Trace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	dir := func(a fleetha.Action) int {
		switch a {
		case fleetha.ActPromote:
			return +1
		case fleetha.ActDemote:
			return -1
		}
		return 0
	}
	ds := tr.Decisions
	for i := 1; i < len(ds); i++ {
		if dir(ds[i].Action) != dir(ds[i-1].Action) {
			if gap := ds[i].Window - ds[i-1].Window; gap <= ctrl.CooldownWindows {
				t.Fatalf("controller flapped: %s@w%d then %s@w%d (gap %d <= cooldown %d)",
					ds[i-1].Action, ds[i-1].Window, ds[i].Action, ds[i].Window, gap, ctrl.CooldownWindows)
			}
		}
	}
}
