package fleetha

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesp/internal/fleetrpc"
	"gesp/internal/matgen"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

const testScale = 0.25

func testbedSystem(t testing.TB, name string, valueSeed int64) (*sparse.CSC, []float64, []float64) {
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
	return a, b, want
}

func checkSolution(t *testing.T, x, want []float64) {
	t.Helper()
	if e := sparse.RelErrInf(x, want); e > 2e-3 {
		t.Fatalf("solution error %g", e)
	}
}

// testShardServers starts n in-process shard servers (the same mux
// the child processes serve).
func testShardServers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		svc := serve.New(serve.DefaultConfig())
		ts := httptest.NewServer(fleetrpc.NewLocalShard("", svc).Mux())
		t.Cleanup(ts.Close)
		addrs[i] = strings.TrimPrefix(ts.URL, "http://")
	}
	return addrs
}

// haCluster is an in-process coordinator cluster: real HTTP between
// nodes, closable per node to simulate coordinator death.
type haCluster struct {
	nodes   []*Node
	servers []*httptest.Server
	addrs   []string
}

// startCluster boots n coordinators over the given shards. Nodes are
// created after every server exists (a node must know all peer
// addresses), with a handler indirection covering the gap.
func startCluster(t *testing.T, n int, shards []string, mut func(id int, cfg *Config)) *haCluster {
	t.Helper()
	c := &haCluster{nodes: make([]*Node, n), servers: make([]*httptest.Server, n), addrs: make([]string, n)}
	handlers := make([]atomic.Pointer[http.Handler], n)
	for i := 0; i < n; i++ {
		i := i
		notReady := http.Handler(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		handlers[i].Store(&notReady)
		c.servers[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			(*handlers[i].Load()).ServeHTTP(w, r)
		}))
		c.addrs[i] = strings.TrimPrefix(c.servers[i].URL, "http://")
	}
	for i := 0; i < n; i++ {
		fcfg := fleetrpc.DefaultConfig(nil)
		fcfg.ProbeInterval = 20 * time.Millisecond
		fcfg.Retry = fleetrpc.Backoff{Attempts: 3, Base: 5 * time.Millisecond, Max: 40 * time.Millisecond}
		cfg := Config{
			ID:        i,
			Peers:     c.addrs,
			Shards:    shards,
			Lease:     150 * time.Millisecond,
			Heartbeat: 40 * time.Millisecond,
			Fleet:     fcfg,
			Logf:      t.Logf,
		}
		if mut != nil {
			mut(i, &cfg)
		}
		node, err := NewNode(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c.nodes[i] = node
		h := http.Handler(node.Mux())
		handlers[i].Store(&h)
	}
	t.Cleanup(func() {
		for i := range c.nodes {
			if c.nodes[i] != nil {
				c.nodes[i].Close()
			}
			c.servers[i].Close()
		}
	})
	return c
}

// killNode simulates coordinator death in-process: stop serving HTTP,
// then stop the node's loops. Peers see connection refused — the same
// signal a SIGKILL produces.
func (c *haCluster) killNode(i int) {
	c.servers[i].Close()
	c.nodes[i].Close()
	c.nodes[i] = nil
}

// waitLeader polls until some live node reports leading, returning
// its index.
func (c *haCluster) waitLeader(t *testing.T, timeout time.Duration) int {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, n := range c.nodes {
			if n != nil && n.Role() == Leader {
				return i
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("no leader elected")
	return -1
}

// TestElectionLowestIDWins: from a cold start the lowest id claims,
// every follower learns the leader, and exactly one node leads.
func TestElectionLowestIDWins(t *testing.T) {
	shards := testShardServers(t, 2)
	c := startCluster(t, 3, shards, nil)
	leader := c.waitLeader(t, 3*time.Second)
	if leader != 0 {
		t.Fatalf("leader = node %d, want node 0 (lowest id)", leader)
	}
	// followers converge on the leader within a few heartbeats
	deadline := time.Now().Add(2 * time.Second)
	for _, i := range []int{1, 2} {
		for {
			st := c.nodes[i].Status()
			if st.Role == RoleFollower && st.LeaderID == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never learned the leader: %+v", i, st)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	leaders := 0
	for _, n := range c.nodes {
		if n.Role() == Leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d concurrent leaders", leaders)
	}
}

// TestFailoverPreservesRegistry: handles submitted before the leader
// dies must solve after the failover — zero lost registry entries,
// served by the next-lowest id at a higher term.
func TestFailoverPreservesRegistry(t *testing.T) {
	shards := testShardServers(t, 2)
	c := startCluster(t, 3, shards, nil)
	if got := c.waitLeader(t, 3*time.Second); got != 0 {
		t.Fatalf("initial leader = %d", got)
	}
	oldTerm := c.nodes[0].Status().Term

	cli, err := NewClient(ClientConfig{Coordinators: c.addrs})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, b, want := testbedSystem(t, "SHERMAN4", 1)
	h, err := cli.Submit(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := cli.Solve(ctx, h, b)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, x, want)

	// the followers must hold the entry before we kill the leader —
	// Submit's ack already guarantees ≥1 does; check replication state
	if n := c.nodes[1].Status().RegistryLen + c.nodes[2].Status().RegistryLen; n == 0 {
		t.Fatal("no follower holds the registry entry despite the submit ack")
	}

	c.killNode(0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c.nodes[1].Role() == Leader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("node 1 never took over; status: %+v", c.nodes[1].Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if newTerm := c.nodes[1].Status().Term; newTerm <= oldTerm {
		t.Fatalf("takeover term %d not above old term %d", newTerm, oldTerm)
	}
	if n := c.nodes[1].Status().RegistryLen; n != 1 {
		t.Fatalf("takeover leader registry has %d entries, want 1", n)
	}
	// the pre-kill handle must solve through the new leader
	x2, err := cli.Solve(ctx, h, b)
	if err != nil {
		t.Fatalf("solve after failover: %v", err)
	}
	checkSolution(t, x2, want)
}

// TestTakeoverUnionsFollowerRegistries is the asymmetric-replication
// durability regression: an entry the old leader replicated to only
// the *higher-id* follower must survive a takeover by the lower-id
// follower — the claimant's read-quorum fetch must union the peer's
// registry before its fleet routes. Without the read quorum, node 1
// would win on id alone with an empty registry: follower 2 would keep
// the entry (apply only unions), but the leader could neither route
// nor heal the handle.
func TestTakeoverUnionsFollowerRegistries(t *testing.T) {
	shards := testShardServers(t, 2)
	c := startCluster(t, 3, shards, func(id int, cfg *Config) {
		// node 1 is the only node that can start an election; 0 and 2
		// hold their (huge) leases so the test controls the sequence
		cfg.Heartbeat = 50 * time.Millisecond
		if id == 1 {
			cfg.Lease = 300 * time.Millisecond
		} else {
			cfg.Lease = time.Hour
		}
	})

	// factor a real system on the shards through a throwaway direct
	// fleet, so the injected registry entry carries the true handle and
	// the shards already hold its factors
	a, b, want := testbedSystem(t, "SHERMAN4", 1)
	fcfg := fleetrpc.DefaultConfig(fleetrpc.Dial(shards))
	fcfg.ProbeInterval = 20 * time.Millisecond
	direct, err := fleetrpc.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	wire := fleetrpc.WireMatrix(a)
	h, err := direct.Submit(context.Background(), wire)
	direct.Close()
	if err != nil {
		t.Fatal(err)
	}

	// simulate the dying leader's asymmetric stream: the entry reached
	// only follower 2; follower 1 saw just a heartbeat at the same term
	if resp := c.nodes[2].handleReplicate(ReplicateRequest{
		Term: 5, LeaderID: 0, LeaderAddr: c.addrs[0], Shards: shards,
		Entries: []fleetrpc.RegistryEntry{{Handle: h, Matrix: wire}},
	}); !resp.OK {
		t.Fatalf("injected replicate rejected: %+v", resp)
	}
	if resp := c.nodes[1].handleReplicate(ReplicateRequest{
		Term: 5, LeaderID: 0, LeaderAddr: c.addrs[0], Shards: shards,
	}); !resp.OK {
		t.Fatalf("injected heartbeat rejected: %+v", resp)
	}
	if n := c.nodes[1].Status().RegistryLen; n != 0 {
		t.Fatalf("follower 1 holds %d entries before takeover, want 0 (test premise)", n)
	}

	// the leader dies; follower 1 (lowest live id, but missing the
	// entry) must take over WITH the entry, by reading follower 2
	c.killNode(0)
	deadline := time.Now().Add(5 * time.Second)
	for c.nodes[1].Role() != Leader {
		if time.Now().After(deadline) {
			t.Fatalf("node 1 never took over; status: %+v", c.nodes[1].Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if term := c.nodes[1].Status().Term; term <= 5 {
		t.Fatalf("takeover term %d not above injected term 5", term)
	}
	if n := c.nodes[1].Status().RegistryLen; n != 1 {
		t.Fatalf("takeover leader registry has %d entries, want 1 — acked entry lost", n)
	}
	// and the handle must actually solve through the new leader
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	fl, _, err := c.nodes[1].leaderFleet()
	if err != nil {
		t.Fatal(err)
	}
	x, err := fl.Solve(ctx, h, b)
	if err != nil {
		t.Fatalf("solve of the unioned handle: %v", err)
	}
	checkSolution(t, x, want)
}

// TestFollowerRedirects: a request aimed at a follower must land on
// the leader via the 307 hop, and the client must cache the leader.
func TestFollowerRedirects(t *testing.T) {
	shards := testShardServers(t, 2)
	c := startCluster(t, 2, shards, nil)
	c.waitLeader(t, 3*time.Second)

	// aim only at the follower: the client's coordinator list is just
	// node 1
	cli, err := NewClient(ClientConfig{Coordinators: []string{c.addrs[1]}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	a, b, want := testbedSystem(t, "JPWH_991", 1)
	h, err := cli.Submit(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := cli.Solve(ctx, h, b)
	if err != nil {
		t.Fatal(err)
	}
	checkSolution(t, x, want)
	if cli.Leader() != c.addrs[0] {
		t.Fatalf("client cached leader %q, want %q", cli.Leader(), c.addrs[0])
	}
}

// TestReplicateFencing: the term is a fencing token — a follower
// rejects lower-term replication, and an equal-term collision resolves
// toward the lower id.
func TestReplicateFencing(t *testing.T) {
	shards := testShardServers(t, 1)
	c := startCluster(t, 2, shards, func(_ int, cfg *Config) {
		cfg.Lease = time.Hour // no spontaneous elections; this test drives by hand
	})
	n0 := c.nodes[0]

	resp := n0.handleReplicate(ReplicateRequest{Term: 7, LeaderID: 1, LeaderAddr: c.addrs[1], Shards: shards})
	if !resp.OK || resp.Term != 7 {
		t.Fatalf("heartbeat at term 7 rejected: %+v", resp)
	}
	if resp = n0.handleReplicate(ReplicateRequest{Term: 6, LeaderID: 1}); resp.OK || resp.Term != 7 {
		t.Fatalf("stale term 6 not fenced: %+v", resp)
	}
	if got := n0.Status(); got.LeaderID != 1 || got.Term != 7 {
		t.Fatalf("status after fencing: %+v", got)
	}
}

// TestManualClockLease: with a manual clock the lease never expires on
// its own — elections are driven purely by advancing time, which is
// what keeps the election state machine testable without sleeps.
func TestManualClockLease(t *testing.T) {
	clk := NewManualClock(time.Unix(1000, 0))
	shards := testShardServers(t, 1)
	fcfg := fleetrpc.DefaultConfig(nil)
	fcfg.ProbeInterval = 20 * time.Millisecond
	// single node: no peers to probe, so expiry leads immediately
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	addr := strings.TrimPrefix(srv.URL, "http://")
	n, err := NewNode(Config{
		ID: 0, Peers: []string{addr}, Shards: shards,
		Lease: 100 * time.Millisecond, Heartbeat: 10 * time.Millisecond,
		Fleet: fcfg, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()

	time.Sleep(150 * time.Millisecond) // many wall ticks, zero clock movement
	if n.Role() != Follower {
		t.Fatal("node took leadership without the manual clock moving")
	}
	clk.Advance(500 * time.Millisecond)
	deadline := time.Now().Add(3 * time.Second)
	for n.Role() != Leader {
		if time.Now().After(deadline) {
			t.Fatal("node never led after the clock advanced past the lease")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestManualClockFirstElection pins when a node runs its first
// election, on a manual clock with ticks driven by hand (no sleeps). A
// node that has heard no leader stays a follower through one heartbeat
// of silence and leads once the silence passes one heartbeat plus the
// lease jitter's ceiling (30% of the lease); its "leading" log line
// says how long after node start that was. A node that has heard a
// heartbeat still waits a full lease.
func TestManualClockFirstElection(t *testing.T) {
	const lease, beat = time.Second, 250 * time.Millisecond
	past := beat + 3*lease/10 + time.Millisecond // above any fresh node's jittered limit
	shards := testShardServers(t, 1)
	// The second peer answers every probe 503: no lower id, no leader,
	// and with two coordinators a claimant needs no peer replica.
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	t.Cleanup(peer.Close)
	addr := strings.TrimPrefix(peer.URL, "http://")

	start := func(t *testing.T) (*Node, *ManualClock, func() []string) {
		clk := NewManualClock(time.Unix(1000, 0))
		fcfg := fleetrpc.DefaultConfig(nil)
		fcfg.ProbeInterval = time.Hour
		var mu sync.Mutex
		var lines []string
		n, err := NewNode(Config{
			ID: 0, Peers: []string{addr, addr}, Shards: shards,
			Lease: lease, Heartbeat: beat, Fleet: fcfg, Clock: clk,
			Logf: func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				lines = append(lines, fmt.Sprintf(format, args...))
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n, clk, func() []string {
			mu.Lock()
			defer mu.Unlock()
			return append([]string(nil), lines...)
		}
	}
	// stays ticks the node by hand and requires it still to follow.
	stays := func(t *testing.T, n *Node, when string) {
		t.Helper()
		n.tick()
		if n.Role() != Follower {
			t.Fatalf("node led %s", when)
		}
	}
	// leads ticks the node by hand until it leads (bounded).
	leads := func(t *testing.T, n *Node, when string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for n.tick(); n.Role() != Leader; n.tick() {
			if time.Now().After(deadline) {
				t.Fatalf("node never led %s", when)
			}
		}
	}

	t.Run("fresh", func(t *testing.T) {
		n, clk, logs := start(t)
		clk.Advance(beat - time.Millisecond)
		stays(t, n, "before one heartbeat of silence")
		clk.Advance(past - (beat - time.Millisecond))
		leads(t, n, "after one heartbeat plus the jitter ceiling")
		if st := n.Status(); st.Term != 1 {
			t.Fatalf("first election at term %d, want 1", st.Term)
		}
		want := fmt.Sprintf("leading at term 1, %v after node start", past)
		for _, l := range logs() {
			if strings.Contains(l, want) {
				return
			}
		}
		t.Fatalf("no log line %q in %q", want, logs())
	})

	t.Run("heard-a-leader", func(t *testing.T) {
		n, clk, _ := start(t)
		if resp := n.handleReplicate(ReplicateRequest{Term: 1, LeaderID: 1, LeaderAddr: addr, Shards: shards}); !resp.OK {
			t.Fatalf("heartbeat rejected: %+v", resp)
		}
		clk.Advance(past)
		stays(t, n, "within a lease of the last heartbeat")
		clk.Advance(lease - past)
		stays(t, n, "exactly one lease after the heartbeat")
		clk.Advance(3*lease/10 + time.Millisecond)
		leads(t, n, "after a full lease plus the jitter ceiling")
		if st := n.Status(); st.Term != 2 {
			t.Fatalf("takeover at term %d, want 2", st.Term)
		}
	})
}
