package fleetrpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gesp/internal/fleet"
	"gesp/internal/matgen"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

const testScale = 0.25

var bg = context.Background()

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

func (s system) pattern() uint64 { return sparse.PatternHash(s.a) }

func checkSolution(t *testing.T, x, want []float64) {
	t.Helper()
	if e := sparse.RelErrInf(x, want); e > 2e-3 {
		t.Fatalf("solution error %g", e)
	}
}

// shardKinds are the two Shard implementations. Every router test
// that does not need a process to die runs over both: LocalShards
// directly, and Clients speaking real HTTP over loopback to the Mux
// the child processes serve.
var shardKinds = []string{"local", "http"}

// forEachKind runs a router test once per Shard implementation.
func forEachKind(t *testing.T, run func(t *testing.T, kind string)) {
	for _, kind := range shardKinds {
		t.Run(kind, func(t *testing.T) { run(t, kind) })
	}
}

// testShards starts n shards of the given kind and returns them plus
// the underlying services for white-box assertions.
func testShards(t *testing.T, kind string, n int, cfg serve.Config) ([]Shard, []*serve.Service) {
	t.Helper()
	shards := make([]Shard, n)
	svcs := make([]*serve.Service, n)
	for i := 0; i < n; i++ {
		svcs[i] = serve.New(cfg)
		t.Cleanup(svcs[i].Close)
		local := NewLocalShard(fmt.Sprintf("local-%d", i), svcs[i])
		shards[i] = local
		if kind == "http" {
			shards[i] = NewClient(serveHTTP(t, local.Mux()))
		}
	}
	return shards, svcs
}

// serveHTTP serves h on loopback for the test's lifetime and returns
// its host:port.
func serveHTTP(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

// killableShards starts n HTTP shards whose servers the test closes
// itself — the SIGKILL stand-in: connections then refuse.
func killableShards(t *testing.T, n int) ([]Shard, []*httptest.Server) {
	t.Helper()
	shards := make([]Shard, n)
	servers := make([]*httptest.Server, n)
	for i := range shards {
		svc := serve.New(serve.DefaultConfig())
		t.Cleanup(svc.Close)
		servers[i] = httptest.NewServer(NewLocalShard("", svc).Mux())
		t.Cleanup(servers[i].Close)
		shards[i] = NewClient(strings.TrimPrefix(servers[i].URL, "http://"))
	}
	return shards, servers
}

// quietConfig is a router with every optional layer off: no hedging,
// no degraded fallback, slow probes that stay out of the test's way.
// Individual tests switch layers back on.
func quietConfig(shards []Shard) Config {
	return Config{
		Shards:        shards,
		Replication:   1,
		ProbeInterval: time.Hour,
		SuspectAfter:  100000,
		Retry:         Backoff{Attempts: 2, Base: time.Millisecond, Max: 5 * time.Millisecond},
	}
}

func newTestFleet(t *testing.T, cfg Config) *Fleet {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f
}

// waitState polls until member id reaches the wanted state.
func waitState(t *testing.T, f *Fleet, id int, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, m := range f.Members() {
			if m.ID == id && m.State == want {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("member %d never became %s; members: %+v", id, want, f.Members())
}

func TestSetRetryAfterCeil(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{time.Millisecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1001 * time.Millisecond, "2"},
		{1500 * time.Millisecond, "2"},
		{3 * time.Second, "3"},
	}
	for _, c := range cases {
		w := httptest.NewRecorder()
		SetRetryAfter(w, c.d)
		if got := w.Header().Get("Retry-After"); got != c.want {
			t.Errorf("SetRetryAfter(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestBackoffWait(t *testing.T) {
	b := Backoff{}.fill()
	if b.Attempts != 4 || b.Base != 25*time.Millisecond || b.Max != 400*time.Millisecond || b.Jitter != 0.5 {
		t.Fatalf("fill defaults: %+v", b)
	}
	if j := (Backoff{Jitter: -1}).fill().Jitter; j != 0 {
		t.Fatalf("negative Jitter must disable, got %g", j)
	}
	if w := b.Wait(0, 0, 0); w != 25*time.Millisecond {
		t.Fatalf("first wait %v, want base", w)
	}
	if w := b.Wait(3, 0, 0); w != 200*time.Millisecond {
		t.Fatalf("wait(3) %v, want 200ms", w)
	}
	if w := b.Wait(10, 0, 0); w != 400*time.Millisecond {
		t.Fatalf("wait(10) %v, want the 400ms ceiling", w)
	}
	// Jitter widens by up to +50%.
	if w := b.Wait(0, 0.999, 0); w <= 25*time.Millisecond || w > 38*time.Millisecond {
		t.Fatalf("jittered wait %v outside (25ms, 37.5ms]", w)
	}
	// A shard's Retry-After hint overrides a shorter computed wait.
	if w := b.Wait(0, 0, 600*time.Millisecond); w != 600*time.Millisecond {
		t.Fatalf("Retry-After floor ignored: %v", w)
	}
}

// TestMemberLifecycle walks the alive -> suspect -> dead machine and
// checks the two revival paths: request successes recover suspects but
// never the dead; only a healthy probe resurrects.
func TestMemberLifecycle(t *testing.T) {
	now := time.Now()
	m := newMember(0, NewClient("127.0.0.1:1"), now)
	if m.currentState() != StateAlive {
		t.Fatal("new member not alive")
	}
	if died := m.reportFailure(1, 3, now); died || m.currentState() != StateSuspect {
		t.Fatalf("after 1 failure: died=%v state=%v", died, m.currentState())
	}
	m.reportSuccess(now)
	if m.currentState() != StateAlive || m.status(now).Failures != 0 {
		t.Fatalf("success must recover a suspect: %+v", m.status(now))
	}
	m.reportFailure(1, 3, now)
	m.reportFailure(1, 3, now)
	if died := m.reportFailure(1, 3, now); !died || m.currentState() != StateDead {
		t.Fatalf("3rd failure: died=%v state=%v", died, m.currentState())
	}
	// Death fires exactly once.
	if m.reportFailure(1, 3, now) {
		t.Fatal("death reported twice")
	}
	// A drained shard still answers requests; successes must not
	// resurrect it.
	m.reportSuccess(now)
	if m.currentState() != StateDead {
		t.Fatal("request success revived a dead member")
	}
	if rejoined := m.reviveOnProbe(now, now); !rejoined || m.currentState() != StateAlive {
		t.Fatalf("probe revival: rejoined=%v state=%v", rejoined, m.currentState())
	}
	if m.reviveOnProbe(now, now) {
		t.Fatal("rejoin reported twice")
	}
	m.markDead(now)
	if m.currentState() != StateDead {
		t.Fatal("markDead did not kill")
	}
	// A healthy answer to a probe sent before the kill is stale: it must
	// not undo a drain.
	if m.reviveOnProbe(now.Add(-time.Millisecond), now) || m.currentState() != StateDead {
		t.Fatal("a probe sent before the death revived the member")
	}
}

func TestErrorTaxonomy(t *testing.T) {
	if !Retryable(ErrUnreachable) || !Retryable(context.DeadlineExceeded) {
		t.Fatal("transport-class errors must be retryable")
	}
	for _, status := range []int{429, 502, 503, 504} {
		if !Retryable(StatusError(status, "", 0)) {
			t.Fatalf("status %d must be retryable", status)
		}
	}
	for _, err := range []error{serve.ErrClosed, &serve.OverloadedError{}, ErrNoLiveShards, &fleet.QuotaError{}} {
		if !Retryable(err) {
			t.Fatalf("%v must be retryable", err)
		}
	}
	if Retryable(StatusError(400, "", 0)) || Retryable(errors.New("boom")) || Retryable(serve.ErrHandleExpired) {
		t.Fatal("terminal errors must not be retryable")
	}
	if !Expired(StatusError(410, "", 0)) || !Expired(serve.ErrHandleExpired) || Expired(StatusError(503, "", 0)) {
		t.Fatal("only a non-resident handle means expired")
	}
	for _, status := range []int{429, 503} {
		if h := RetryAfterHint(StatusError(status, "", time.Second)); h != time.Second {
			t.Fatalf("RetryAfterHint(%d) = %v", status, h)
		}
	}
	if h := RetryAfterHint(StatusError(503, "", 0)); h != 0 || !errors.Is(StatusError(503, "", 0), serve.ErrClosed) {
		t.Fatalf("a 503 without a hint is a closed shard, hint %v", h)
	}
}

// TestFleetRoutingAndSolve: submits land on the ring owner, solves
// come back correct, nothing runs anywhere else, and the accounting
// balances.
func TestFleetRoutingAndSolve(t *testing.T) { forEachKind(t, testRoutingAndSolve) }

func testRoutingAndSolve(t *testing.T, kind string) {
	shards, svcs := testShards(t, kind, 3, serve.DefaultConfig())
	f := newTestFleet(t, quietConfig(shards))

	names := []string{"SHERMAN4", "GEMAT11", "WEST2021"}
	for _, name := range names {
		sys := testbedSystem(t, name, 0)
		h, err := f.Submit(bg, WireMatrix(sys.a))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		x, err := f.Solve(bg, h, sys.b)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkSolution(t, x, sys.want)
		owner := f.Owner(h.Key.Pattern)
		if svcs[owner].Stats().Submits == 0 {
			t.Fatalf("%s: owner shard %d never saw the submit", name, owner)
		}
	}
	st := f.Stats()
	var solves uint64
	for _, svc := range svcs {
		solves += svc.Stats().Solves
	}
	if solves != uint64(len(names)) || st.Routed != uint64(len(names)) || st.Failed != 0 {
		t.Fatalf("accounting: %d shard solves, routed=%d failed=%d, want %d/%d/0", solves, st.Routed, st.Failed, len(names), len(names))
	}
}

// TestFleetFailoverOnShardDeath: with replication, losing the owner
// process mid-stream costs no request — traffic fails over to the
// replica while the prober declares the death and rebuilds the ring.
func TestFleetFailoverOnShardDeath(t *testing.T) {
	shards, servers := killableShards(t, 3)
	cfg := quietConfig(shards)
	cfg.Replication = 2
	cfg.ProbeInterval = 5 * time.Millisecond
	cfg.SuspectAfter = 1
	cfg.DeadAfter = 3
	cfg.RequestTimeout = 500 * time.Millisecond
	cfg.Retry = Backoff{Attempts: 4, Base: time.Millisecond, Max: 10 * time.Millisecond}
	f := newTestFleet(t, cfg)

	sys := testbedSystem(t, "SHERMAN4", 0)
	h, err := f.Submit(bg, WireMatrix(sys.a))
	if err != nil {
		t.Fatal(err)
	}
	owner := f.Owner(h.Key.Pattern)
	servers[owner].Close() // SIGKILL stand-in: connections now refuse

	// Every solve across the death must succeed.
	for i := 0; i < 5; i++ {
		x, serr := f.Solve(bg, h, sys.b)
		if serr != nil {
			t.Fatalf("solve %d across shard death: %v", i, serr)
		}
		checkSolution(t, x, sys.want)
	}
	waitState(t, f, owner, "dead", 2*time.Second)
	for _, id := range f.Ring().Shards() {
		if id == owner {
			t.Fatal("dead member still on the ring")
		}
	}
	st := f.Stats()
	if st.Failed != 0 {
		t.Fatalf("%d client-visible failures across a replicated death", st.Failed)
	}
	if st.Deaths != 1 || st.Rebuilds == 0 {
		t.Fatalf("membership accounting: deaths=%d rebuilds=%d", st.Deaths, st.Rebuilds)
	}
}

// TestFleetHedgeBudgetDenied: an aggressive hedge trigger against a
// nearly-empty budget gets denials, not doubled load — and every solve
// still answers.
func TestFleetHedgeBudgetDenied(t *testing.T) { forEachKind(t, testHedgeBudgetDenied) }

func testHedgeBudgetDenied(t *testing.T, kind string) {
	shards, _ := testShards(t, kind, 3, serve.DefaultConfig())
	cfg := quietConfig(shards)
	cfg.Replication = 2
	cfg.HedgeAfter = time.Nanosecond // hedge every solve the budget allows
	cfg.HedgeBudget = 1e-6           // ~no refill within the test
	cfg.HedgeBurst = 2
	f := newTestFleet(t, cfg)

	sys := testbedSystem(t, "SHERMAN4", 0)
	h, err := f.Submit(bg, WireMatrix(sys.a))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		x, serr := f.Solve(bg, h, sys.b)
		if serr != nil {
			t.Fatalf("solve %d: %v", i, serr)
		}
		checkSolution(t, x, sys.want)
	}
	st := f.Stats()
	if st.HedgeStaked > 2 {
		t.Fatalf("budget of 2 granted %d hedges", st.HedgeStaked)
	}
	if st.HedgeDenied == 0 {
		t.Fatalf("dry budget never denied a hedge: %+v", st)
	}
	if st.Failed != 0 {
		t.Fatalf("%d failures — a denied hedge must fall back to the unhedged path", st.Failed)
	}
}

// TestFleetDegradedFallback: with every placement down and retries
// exhausted, the coordinator ships the registered matrix to a live
// shard's iterative path instead of failing the request.
func TestFleetDegradedFallback(t *testing.T) {
	shards, servers := killableShards(t, 2)
	cfg := quietConfig(shards) // prober effectively off: the owner stays "alive"
	cfg.Replication = 1
	cfg.DegradedFallback = true
	cfg.RequestTimeout = 200 * time.Millisecond
	cfg.Retry = Backoff{Attempts: 2, Base: time.Millisecond, Max: 2 * time.Millisecond}
	f := newTestFleet(t, cfg)

	sys := testbedSystem(t, "SHERMAN4", 0)
	h, err := f.Submit(bg, WireMatrix(sys.a))
	if err != nil {
		t.Fatal(err)
	}
	owner := f.Owner(h.Key.Pattern)
	servers[owner].Close() // sole placement gone; membership hasn't noticed

	x, err := f.Solve(bg, h, sys.b)
	if err != nil {
		t.Fatalf("degraded fallback must answer: %v", err)
	}
	checkSolution(t, x, sys.want)
	st := f.Stats()
	if st.Degraded != 1 || st.Failed != 0 {
		t.Fatalf("degraded accounting: degraded=%d failed=%d", st.Degraded, st.Failed)
	}
}

// TestFleetEvictionHeal: a shard that evicted its factors reports the
// handle expired (410 Gone over the wire); the router re-submits from
// its registry and goes around instead of surfacing the expiry.
func TestFleetEvictionHeal(t *testing.T) { forEachKind(t, testEvictionHeal) }

func testEvictionHeal(t *testing.T, kind string) {
	cfg := serve.DefaultConfig()
	cfg.MaxFactors = 1
	shards, _ := testShards(t, kind, 1, cfg)
	f := newTestFleet(t, quietConfig(shards))

	sysA := testbedSystem(t, "SHERMAN4", 0)
	sysB := testbedSystem(t, "GEMAT11", 0)
	hA, err := f.Submit(bg, WireMatrix(sysA.a))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Submit(bg, WireMatrix(sysB.a)); err != nil { // evicts A's factors
		t.Fatal(err)
	}
	x, err := f.Solve(bg, hA, sysA.b)
	if err != nil {
		t.Fatalf("evicted handle must heal, got %v", err)
	}
	checkSolution(t, x, sysA.want)
	if st := f.Stats(); st.Resubmits == 0 || st.Retries != 0 {
		t.Fatalf("a heal is a resubmit, not a backed-off retry: resubmits=%d retries=%d", st.Resubmits, st.Retries)
	}
}

// TestFleetDrainStaysDead: a drained shard keeps answering, so only
// the prober — which can read the "draining" health status — must
// decide it never rejoins the ring.
func TestFleetDrainStaysDead(t *testing.T) { forEachKind(t, testDrainStaysDead) }

func testDrainStaysDead(t *testing.T, kind string) {
	shards, _ := testShards(t, kind, 3, serve.DefaultConfig())
	cfg := quietConfig(shards)
	cfg.Replication = 2
	cfg.ProbeInterval = 5 * time.Millisecond
	f := newTestFleet(t, cfg)

	sys := testbedSystem(t, "SHERMAN4", 0)
	h, err := f.Submit(bg, WireMatrix(sys.a))
	if err != nil {
		t.Fatal(err)
	}
	target := f.Owner(h.Key.Pattern)
	if err := f.Drain(bg, target); err != nil {
		t.Fatal(err)
	}
	// Many probe intervals later the drained member must still be dead
	// and off the ring — its health endpoint answers, but "draining".
	time.Sleep(50 * time.Millisecond)
	for _, m := range f.Members() {
		if m.ID == target && m.State != "dead" {
			t.Fatalf("drained member revived to %s", m.State)
		}
	}
	for _, id := range f.Ring().Shards() {
		if id == target {
			t.Fatal("drained member back on the ring")
		}
	}
	// The drained shard's patterns still solve on the survivors.
	x, err := f.Solve(bg, h, sys.b)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, x, sys.want)
	if st := f.Stats(); st.Drains != 1 || st.Failed != 0 {
		t.Fatalf("drain accounting: drains=%d failed=%d", st.Drains, st.Failed)
	}
	// A second drain of the same member must refuse.
	if err := f.Drain(bg, target); err == nil {
		t.Fatal("double drain must error")
	}
}
