// Process-level chaos tests: real shard processes, real signals. The
// external test package breaks the faultsim -> fleetrpc import cycle,
// and TestMain's RunShardIfChild hook is what lets this test binary
// re-execute itself as the shard processes it then kills.
package fleetrpc_test

import (
	"context"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesp/internal/faultsim"
	"gesp/internal/fleetrpc"
	"gesp/internal/matgen"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

var bg = context.Background()

func TestMain(m *testing.M) {
	fleetrpc.RunShardIfChild()
	os.Exit(m.Run())
}

type chaosSystem struct {
	a    *sparse.CSC
	b    []float64
	want []float64
	h    serve.Handle
}

// chaosFleet spawns n real shard processes and a coordinator tuned for
// fast failure detection, then submits and warms the named systems.
func chaosFleet(t *testing.T, n int, names []string) (*faultsim.ProcSet, *fleetrpc.Fleet, []chaosSystem) {
	t.Helper()
	procs, err := fleetrpc.SpawnShards(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(procs.Close)

	cfg := fleetrpc.Config{
		Shards:           fleetrpc.Dial(procs.Addrs()),
		Replication:      2,
		ProbeInterval:    10 * time.Millisecond,
		ProbeTimeout:     100 * time.Millisecond,
		SuspectAfter:     1,
		DeadAfter:        3,
		Retry:            fleetrpc.Backoff{Attempts: 5, Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
		RequestTimeout:   300 * time.Millisecond,
		HedgeAfter:       30 * time.Millisecond,
		HedgeBudget:      0.3,
		HedgeBurst:       8,
		DegradedFallback: true,
	}
	f, err := fleetrpc.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)

	var pool []chaosSystem
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
		h, err := f.Submit(bg, fleetrpc.WireMatrix(a))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := f.Solve(bg, h, b); err != nil { // warm the factor caches
			t.Fatalf("%s warm solve: %v", name, err)
		}
		pool = append(pool, chaosSystem{a: a, b: b, want: want, h: h})
	}
	return procs, f, pool
}

// hammer runs closed-loop solvers against the pool until stop closes,
// counting solves and recording the first error.
func hammer(f *fleetrpc.Fleet, pool []chaosSystem, workers int, stop chan struct{}) (*sync.WaitGroup, *atomic.Uint64, *atomic.Value) {
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
				if _, err := f.Solve(bg, sys.h, sys.b); err != nil {
					firstErr.CompareAndSwap(nil, err)
					return
				}
				solves.Add(1)
			}
		}(int64(1000 + w))
	}
	return &wg, &solves, &firstErr
}

func awaitMemberState(t *testing.T, f *fleetrpc.Fleet, id int, want string, timeout time.Duration) time.Time {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, m := range f.Members() {
			if m.ID == id && m.State == want {
				return m.ChangedAt
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("member %d never became %s; members: %+v", id, want, f.Members())
	return time.Time{}
}

// TestChaosSIGKILL is the acceptance chaos test: SIGKILL a shard
// process under load; the membership layer must detect the death and
// the retry ladder must absorb it with zero client-visible failures.
func TestChaosSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos: skipped in -short")
	}
	procs, f, pool := chaosFleet(t, 3, []string{"SHERMAN4", "GEMAT11"})

	stop := make(chan struct{})
	wg, solves, firstErr := hammer(f, pool, 4, stop)

	time.Sleep(100 * time.Millisecond)
	target := f.Ring().Owner(pool[0].h.Key.Pattern)
	killAt := time.Now()
	if err := procs.Procs[target].Kill(); err != nil {
		t.Fatal(err)
	}
	diedAt := awaitMemberState(t, f, target, "dead", 5*time.Second)

	time.Sleep(200 * time.Millisecond) // keep hammering the rebuilt ring
	close(stop)
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatalf("client-visible failure across SIGKILL: %v", err)
	}
	if solves.Load() == 0 {
		t.Fatal("load loop never solved")
	}
	if det := diedAt.Sub(killAt); det > 3*time.Second {
		t.Fatalf("death detection took %v", det)
	}
	st := f.Stats()
	if st.Failed != 0 {
		t.Fatalf("%d failed requests, want 0; stats:\n%s", st.Failed, st)
	}
	if st.Deaths != 1 || st.Rebuilds == 0 {
		t.Fatalf("membership accounting: deaths=%d rebuilds=%d", st.Deaths, st.Rebuilds)
	}
	// Everything must still solve correctly on the survivors.
	for _, sys := range pool {
		x, err := f.Solve(bg, sys.h, sys.b)
		if err != nil {
			t.Fatal(err)
		}
		if e := sparse.RelErrInf(x, sys.want); e > 2e-3 {
			t.Fatalf("post-kill solution error %g", e)
		}
	}
}

// TestChaosSIGSTOP: a stopped process keeps its sockets open, so
// requests hang instead of failing fast — the probe timeout must
// declare it dead, and SIGCONT must bring it back through the
// prober-only revival path.
func TestChaosSIGSTOP(t *testing.T) {
	if testing.Short() {
		t.Skip("process chaos: skipped in -short")
	}
	procs, f, pool := chaosFleet(t, 3, []string{"SHERMAN4", "GEMAT11"})

	stop := make(chan struct{})
	wg, _, firstErr := hammer(f, pool, 4, stop)

	time.Sleep(100 * time.Millisecond)
	target := f.Ring().Owner(pool[0].h.Key.Pattern)
	if err := procs.Procs[target].Stop(); err != nil {
		t.Fatal(err)
	}
	awaitMemberState(t, f, target, "dead", 5*time.Second)

	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		t.Fatalf("client-visible failure across SIGSTOP: %v", err)
	}

	// SIGCONT: the next healthy probe must revive the member and
	// rebuild the ring with it back in.
	if err := procs.Procs[target].Cont(); err != nil {
		t.Fatal(err)
	}
	awaitMemberState(t, f, target, "alive", 5*time.Second)
	// The member turns alive a moment before the prober swaps in the
	// ring that holds it and counts the rejoin; once counted, the ring
	// must hold it.
	st := f.Stats()
	for deadline := time.Now().Add(time.Second); st.Rejoins == 0 && time.Now().Before(deadline); st = f.Stats() {
		time.Sleep(time.Millisecond)
	}
	if st.Rejoins == 0 {
		t.Fatalf("revived member never counted a rejoin: %+v", st)
	}
	onRing := false
	for _, id := range f.Ring().Shards() {
		if id == target {
			onRing = true
		}
	}
	if !onRing {
		t.Fatal("revived member not back on the ring")
	}
	if st.Failed != 0 {
		t.Fatalf("%d failed requests, want 0; stats:\n%s", st.Failed, st)
	}
}
