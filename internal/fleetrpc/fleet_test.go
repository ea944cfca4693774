package fleetrpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
	if m.currentState() != StateAlive || m.status().Failures != 0 {
		t.Fatalf("success must recover a suspect: %+v", m.status())
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

// stuckShard holds every solve until release closes and then fails it
// as unreachable; its health check fails once down is set. Only Addr,
// Solve and Health are ever called.
type stuckShard struct {
	Shard
	entered chan struct{}
	release chan struct{}
	down    atomic.Bool
}

func (s *stuckShard) Addr() string { return "stuck" }

func (s *stuckShard) Solve(ctx context.Context, _ serve.Handle, _ []float64) ([]float64, error) {
	s.entered <- struct{}{}
	select {
	case <-s.release:
	case <-ctx.Done():
	}
	return nil, ErrUnreachable
}

func (s *stuckShard) Health(context.Context) (HealthResponse, error) {
	if s.down.Load() {
		return HealthResponse{}, ErrUnreachable
	}
	return HealthResponse{Status: "ok"}, nil
}

// TestMemberQueueDepthIsInFlight: a member's QueueDepth is this
// coordinator's exact in-flight count, so a member that died with
// solves outstanding reads 0 once they are reaped, not its last load
// for ever.
func TestMemberQueueDepthIsInFlight(t *testing.T) {
	sh := &stuckShard{entered: make(chan struct{}, 3), release: make(chan struct{})}
	cfg := quietConfig([]Shard{sh})
	cfg.ProbeInterval = 5 * time.Millisecond
	cfg.SuspectAfter = 1
	cfg.DeadAfter = 2
	f := newTestFleet(t, cfg)
	h := serve.Handle{Key: serve.FactorKey{Pattern: 1}, N: 1}
	done := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := f.Solve(bg, h, []float64{1})
			done <- err
		}()
	}
	for i := 0; i < 3; i++ {
		<-sh.entered
	}
	if q := f.Stats().Members[0].QueueDepth; q != 3 {
		t.Fatalf("queue depth %d with three solves in flight, want 3", q)
	}
	sh.down.Store(true)
	waitState(t, f, 0, "dead", 2*time.Second)
	close(sh.release)
	for i := 0; i < 3; i++ {
		if err := <-done; err == nil {
			t.Fatal("a solve on the only, dead member succeeded")
		}
	}
	st := f.Stats()
	if m := st.Members[0]; m.State != "dead" || m.QueueDepth != 0 {
		t.Fatalf("after the reap: %+v, want a dead member with queue depth 0", m)
	}
	if !strings.HasSuffix(st.String(), " in flight 0\n") {
		t.Fatalf("stats text does not print the in-flight count:\n%s", st)
	}
}

func TestErrorTaxonomy(t *testing.T) {
	if !Retryable(ErrUnreachable) || !Retryable(context.DeadlineExceeded) {
		t.Fatal("transport-class errors must be retryable")
	}
	for _, status := range []int{502, 503, 504} {
		if !Retryable(StatusError(status, "", 0)) {
			t.Fatalf("status %d must be retryable", status)
		}
	}
	for _, err := range []error{serve.ErrClosed, &serve.OverloadedError{}, ErrNoLiveShards} {
		if !Retryable(err) {
			t.Fatalf("%v must be retryable", err)
		}
	}
	if Retryable(StatusError(400, "", 0)) || Retryable(errors.New("boom")) || Retryable(serve.ErrHandleExpired) {
		t.Fatal("terminal errors must not be retryable")
	}
	// No front door answers 429; one from elsewhere is an unmapped
	// status, terminal and without a hint.
	if re := StatusError(429, "", time.Second); Retryable(re) || re.Unwrap() != nil || RetryAfterHint(re) != 0 {
		t.Fatalf("a 429 must be terminal: %#v", re)
	}
	if !Expired(StatusError(410, "", 0)) || !Expired(serve.ErrHandleExpired) || Expired(StatusError(503, "", 0)) {
		t.Fatal("only a non-resident handle means expired")
	}
	if h := RetryAfterHint(StatusError(503, "", time.Second)); h != time.Second {
		t.Fatalf("RetryAfterHint(503) = %v", h)
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
	// The ring rebuild follows the state change (noteFailure reports the
	// death, then rebalances), so the member leaves the ring just after
	// it reads dead.
	for deadline := time.Now().Add(2 * time.Second); slices.Contains(f.Ring().Shards(), owner); {
		if time.Now().After(deadline) {
			t.Fatal("dead member still on the ring")
		}
		time.Sleep(time.Millisecond)
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

// TestFleetConcurrentDrainsKeepOneLive: drains run one at a time, so
// two concurrent drains of a two-member fleet cannot both pass the
// last-live-member check — exactly one succeeds and the fleet still
// solves — and two concurrent drains of one member count one drain.
// Each handoff lingers a moment so the racing drains overlap.
func TestFleetConcurrentDrainsKeepOneLive(t *testing.T) {
	sys := testbedSystem(t, "SHERMAN4", 0)
	race := func(t *testing.T, a, b int) {
		shards, _ := testShards(t, "local", 2, serve.DefaultConfig())
		for i, sh := range shards {
			shards[i] = lingeringShard{sh}
		}
		f := newTestFleet(t, drainConfig(shards))
		h, err := f.Submit(bg, WireMatrix(sys.a))
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		errs := make(chan error, 2)
		for _, id := range []int{a, b} {
			go func(id int) {
				<-start
				errs <- f.Drain(bg, id)
			}(id)
		}
		close(start)
		var ok int
		for range 2 {
			if err := <-errs; err == nil {
				ok++
			}
		}
		if ok != 1 {
			t.Fatalf("drains %d ∥ %d: %d succeeded, want exactly 1", a, b, ok)
		}
		if st := f.Stats(); st.Drains != 1 {
			t.Fatalf("drains %d ∥ %d counted %d drains, want 1", a, b, st.Drains)
		}
		x, err := f.Solve(bg, h, sys.b)
		if err != nil {
			t.Fatalf("solve after drains %d ∥ %d: %v", a, b, err)
		}
		checkSolution(t, x, sys.want)
	}
	for round := 0; round < 20; round++ {
		race(t, 0, 1)
		race(t, 0, 0)
	}
}

// lingeringShard holds every Handoff open for a moment.
type lingeringShard struct{ Shard }

func (s lingeringShard) Handoff(ctx context.Context) error {
	time.Sleep(2 * time.Millisecond)
	return s.Shard.Handoff(ctx)
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

// gatedShard is a fake member whose Submit announces itself on entered,
// then answers only with the error the test sends on release (nil:
// success). inFlight counts calls that have entered and not returned.
// Only Addr and Submit are ever called: the tests' prober sleeps an
// hour.
type gatedShard struct {
	Shard
	addr     string
	entered  chan struct{}
	release  chan error
	inFlight atomic.Int32
}

func newGatedShard(addr string) *gatedShard {
	return &gatedShard{addr: addr, entered: make(chan struct{}, 4), release: make(chan error, 4)}
}

func (s *gatedShard) Addr() string { return s.addr }

func (s *gatedShard) Submit(_ context.Context, m Matrix) (serve.Handle, error) {
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)
	s.entered <- struct{}{}
	if err := <-s.release; err != nil {
		return serve.Handle{}, err
	}
	a, err := m.CSC()
	if err != nil {
		return serve.Handle{}, err
	}
	return serve.Handle{Key: serve.FactorKey{Pattern: sparse.PatternHash(a)}, N: a.Rows}, nil
}

// awaitEntered fails the test unless every shard's Submit has been
// entered (and not yet answered) within the bound.
func awaitEntered(t *testing.T, what string, shards ...*gatedShard) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for _, s := range shards {
		select {
		case <-s.entered:
		case <-timeout:
			t.Fatalf("%s: %s's submit never started", what, s.addr)
		}
	}
}

// awaitReturned spins (bounded) until s's Submit has returned.
func awaitReturned(t *testing.T, s *gatedShard) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.inFlight.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s's submit never returned", s.addr)
		}
		runtime.Gosched()
	}
}

// gatedFleet builds a fleet over n gated shards at replication rf (at
// least 2) and returns the shards of sys's placement's first two
// members, owner first.
func gatedFleet(t *testing.T, n, rf int, sys system) (*Fleet, []*gatedShard, *gatedShard, *gatedShard) {
	t.Helper()
	gated := make([]*gatedShard, n)
	shards := make([]Shard, n)
	for i := range gated {
		gated[i] = newGatedShard(fmt.Sprintf("gated-%d", i))
		shards[i] = gated[i]
	}
	cfg := quietConfig(shards)
	cfg.Replication = rf
	f := newTestFleet(t, cfg)
	var ids [maxReplication]int
	if f.Ring().ReplicasInto(ids[:rf], sys.pattern()) != rf {
		t.Fatalf("placement narrower than %d", rf)
	}
	return f, gated, gated[ids[0]], gated[ids[1]]
}

// TestSubmitPopulatesConcurrently: a submit's owner and replica calls
// are in flight at the same time, and the population keeps the
// sequential rules — the registry entry appears only once the owner
// has succeeded, a failing replica does not fail the submit, an owner
// 4xx is the submit's error with no entry, and Submit returns only
// after every call has returned. A re-home (the rebalance that follows
// every membership change) populates its whole placement at once too. Every wait is a channel hand-off.
func TestSubmitPopulatesConcurrently(t *testing.T) {
	sys := testbedSystem(t, "SHERMAN4", 0)
	m := WireMatrix(sys.a)
	type result struct {
		h   serve.Handle
		err error
	}
	submit := func(f *Fleet) chan result {
		ch := make(chan result, 1)
		go func() {
			h, err := f.Submit(bg, m)
			ch <- result{h, err}
		}()
		return ch
	}
	settled := func(t *testing.T, gated []*gatedShard) {
		t.Helper()
		for _, s := range gated {
			if n := s.inFlight.Load(); n != 0 {
				t.Fatalf("Submit returned with %d call(s) still in flight on %s", n, s.addr)
			}
			if len(s.entered) != 0 {
				t.Fatalf("%s was submitted to again", s.addr)
			}
		}
	}

	t.Run("replica-fails", func(t *testing.T) {
		f, gated, owner, replica := gatedFleet(t, 2, 2, sys)
		res := submit(f)
		awaitEntered(t, "owner and replica in flight together", owner, replica)
		replica.release <- StatusError(http.StatusInternalServerError, "replica broke", 0)
		awaitReturned(t, replica)
		if n := f.registry.Len(); n != 0 {
			t.Fatalf("registry holds %d entries before the owner answered", n)
		}
		owner.release <- nil
		r := <-res
		if r.err != nil {
			t.Fatalf("a failing replica failed the submit: %v", r.err)
		}
		if _, ok := f.registry.Get(r.h); !ok || f.registry.Len() != 1 {
			t.Fatalf("registry of %d after the owner succeeded, want just %v", f.registry.Len(), r.h)
		}
		settled(t, gated)
	})

	t.Run("owner-first", func(t *testing.T) {
		f, gated, owner, replica := gatedFleet(t, 2, 2, sys)
		res := submit(f)
		awaitEntered(t, "owner and replica in flight together", owner, replica)
		owner.release <- nil
		awaitReturned(t, owner)
		select {
		case r := <-res:
			t.Fatalf("Submit returned (%v) while the replica's call was in flight", r.err)
		default:
		}
		replica.release <- nil
		if r := <-res; r.err != nil || f.registry.Len() != 1 {
			t.Fatalf("submit: %v, registry %d entries", r.err, f.registry.Len())
		}
		settled(t, gated)
	})

	t.Run("owner-4xx", func(t *testing.T) {
		f, gated, owner, replica := gatedFleet(t, 2, 2, sys)
		res := submit(f)
		awaitEntered(t, "owner and replica in flight together", owner, replica)
		bad := StatusError(http.StatusBadRequest, "bad matrix", 0)
		owner.release <- bad
		replica.release <- nil
		r := <-res
		if r.err != bad {
			t.Fatalf("submit error %v, want the owner's %v", r.err, bad)
		}
		if n := f.registry.Len(); n != 0 {
			t.Fatalf("registry holds %d entries after the owner refused", n)
		}
		settled(t, gated)
	})

	t.Run("rehome", func(t *testing.T) {
		f, gated, _, _ := gatedFleet(t, 3, 3, sys)
		res := submit(f)
		awaitEntered(t, "the whole placement in flight together", gated...)
		for _, s := range gated {
			s.release <- nil
		}
		if r := <-res; r.err != nil {
			t.Fatal(r.err)
		}
		f.rebalance()
		awaitEntered(t, "the re-homed placement populated at once", gated...)
		for _, s := range gated {
			s.release <- nil
		}
		f.Close() // waits for the re-home
		if got := f.Stats().Rereplicated; got != 3 {
			t.Fatalf("rereplicated %d, want 3", got)
		}
		settled(t, gated)
	})
}
