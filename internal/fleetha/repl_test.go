package fleetha

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gesp/internal/fleetrpc"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

// quietConfig is a node config whose own loop never acts during a
// test: an hour's heartbeat and lease, so the test drives elections
// and broadcasts by hand.
func quietConfig(id int, peers, shards []string) Config {
	fcfg := fleetrpc.DefaultConfig(nil)
	fcfg.ProbeInterval = 20 * time.Millisecond
	return Config{ID: id, Peers: peers, Shards: shards, Lease: 3 * time.Hour, Heartbeat: time.Hour, Fleet: fcfg}
}

// entryOf is a registry entry for a 2x2 system whose values vary with v.
func entryOf(t *testing.T, v float64) fleetrpc.RegistryEntry {
	t.Helper()
	tr := sparse.NewTriplet(2, 2)
	tr.Append(0, 0, 4+v)
	tr.Append(1, 0, -1)
	tr.Append(1, 1, 3)
	a := tr.ToCSC()
	h := serve.Handle{Key: serve.FactorKey{Pattern: sparse.PatternHash(a), Values: uint64(v)}, N: 2}
	return fleetrpc.RegistryEntry{Handle: h, Matrix: fleetrpc.WireMatrix(a)}
}

func handles(es []fleetrpc.RegistryEntry) []serve.Handle {
	out := make([]serve.Handle, len(es))
	for i, e := range es {
		out[i] = e.Handle
	}
	return out
}

// TestReplicateByLogPosition: a leader sends each follower the
// registry log from that follower's acked position on. First contact
// after a takeover carries the whole log; a submit's batch carries its
// entry exactly once; a heartbeat after an ack carries none; and a
// batch whose call failed is sent again, the same tail, on the next
// broadcast.
func TestReplicateByLogPosition(t *testing.T) {
	var (
		mu   sync.Mutex
		got  []ReplicateRequest
		fail atomic.Bool
	)
	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, ok := fleetrpc.ReadBody(w, r)
		if !ok {
			return
		}
		var req ReplicateRequest
		if err := req.UnmarshalBinary(body); err != nil {
			fleetrpc.WriteErr(w, err)
			return
		}
		mu.Lock()
		got = append(got, req)
		mu.Unlock()
		if fail.Load() {
			fleetrpc.WriteErr(w, fleetrpc.StatusError(http.StatusInternalServerError, "follower broke", 0))
			return
		}
		fleetrpc.WriteJSON(w, http.StatusOK, ReplicateResponse{OK: true, Term: req.Term, AppliedSeq: req.Seq})
	}))
	t.Cleanup(follower.Close)
	// last returns the one batch the follower received since the
	// previous call.
	seen := 0
	last := func(when string) ReplicateRequest {
		t.Helper()
		mu.Lock()
		defer mu.Unlock()
		if len(got) != seen+1 {
			t.Fatalf("%s: follower received %d batches, want 1", when, len(got)-seen)
		}
		seen++
		return got[seen-1]
	}

	peers := []string{"127.0.0.1:1", strings.TrimPrefix(follower.URL, "http://")}
	n, err := NewNode(quietConfig(0, peers, testShardServers(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)

	// a previous leader streamed two entries to this node
	a, b := entryOf(t, 1), entryOf(t, 2)
	if resp := n.handleReplicate(ReplicateRequest{Term: 1, LeaderID: 1, Seq: 1, Entries: []fleetrpc.RegistryEntry{a, b}}); !resp.OK {
		t.Fatalf("replicate rejected: %+v", resp)
	}
	n.becomeLeader(2)
	if n.Role() != Leader {
		t.Fatal("node did not take leadership")
	}
	if hs := handles(last("first contact").Entries); !slices.Equal(hs, []serve.Handle{a.Handle, b.Handle}) {
		t.Fatalf("first contact carried %v, want the whole log %v", hs, []serve.Handle{a.Handle, b.Handle})
	}

	ctx := context.Background()
	c := entryOf(t, 3)
	h, err := n.Submit(ctx, c.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	if hs := handles(last("submit").Entries); !slices.Equal(hs, []serve.Handle{h}) {
		t.Fatalf("submit's batch carried %v, want its entry %v once", hs, h)
	}

	n.broadcastReplicate()
	if es := last("heartbeat").Entries; len(es) != 0 {
		t.Fatalf("heartbeat after the ack carried %v, want no entries", handles(es))
	}

	fail.Store(true)
	if _, err := n.Submit(ctx, entryOf(t, 4).Matrix); err == nil {
		t.Fatal("submit acked with its only follower failing")
	}
	failed := handles(last("failed submit").Entries)
	fail.Store(false)
	if acks := n.broadcastReplicate(); acks != 1 {
		t.Fatalf("%d acks after the follower recovered, want 1", acks)
	}
	if hs := handles(last("retry").Entries); len(failed) != 1 || !slices.Equal(hs, failed) {
		t.Fatalf("broadcast after the failed call carried %v, want the failed tail %v", hs, failed)
	}
}

// TestNewLeaderKeepsFollowerEntries: apply is union-only, so a new
// leader's first batch — its whole log, which may lack what an older
// leader streamed — cannot erase an entry a follower holds.
func TestNewLeaderKeepsFollowerEntries(t *testing.T) {
	shards := testShardServers(t, 1)
	c := startCluster(t, 3, shards, func(_ int, cfg *Config) {
		cfg.Lease = time.Hour // no spontaneous elections; this test drives by hand
	})
	x := entryOf(t, 1)
	if resp := c.nodes[2].handleReplicate(ReplicateRequest{Term: 5, LeaderID: 1, LeaderAddr: c.addrs[1], Shards: shards,
		Entries: []fleetrpc.RegistryEntry{x}}); !resp.OK {
		t.Fatalf("injected replicate rejected: %+v", resp)
	}
	leader := c.nodes[0]
	leader.becomeLeader(6)
	if leader.Role() != Leader || leader.reg.Len() != 0 {
		t.Fatalf("node 0: role %v with %d entries, want a leader whose registry lacks X", leader.Role(), leader.reg.Len())
	}
	if st := c.nodes[2].Status(); st.Term != 6 || st.LeaderID != 0 {
		t.Fatalf("follower 2 never heard the term-6 leader: %+v", st)
	}
	if _, ok := c.nodes[2].reg.Get(x.Handle); !ok {
		t.Fatal("the term-6 leader's first batch erased follower 2's entry")
	}
}

// TestClaimantAdoptsLaterTermView: a claimant's read quorum orders the
// peers' membership views by (term, seq). Sequence numbers are each
// leader's own counter, so the view heard from the term-2 leader at
// seq 3 is newer than the term-1 leader's at seq 50.
func TestClaimantAdoptsLaterTermView(t *testing.T) {
	peer := func(st StateResponse) string {
		body, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			fleetrpc.WriteBytes(w, fleetrpc.FrameContentType, body)
		}))
		t.Cleanup(srv.Close)
		return strings.TrimPrefix(srv.URL, "http://")
	}
	older := StateResponse{ID: 1, Term: 1, AppliedSeq: 50, Shards: []string{"a:1", "b:1"}, Dead: []int{0}}
	newer := StateResponse{ID: 2, Term: 2, AppliedSeq: 3, Shards: []string{"a:1", "b:1", "c:1"}, Dead: []int{1}}
	peers := []string{"127.0.0.1:1", peer(older), peer(newer)}
	n, err := NewNode(quietConfig(0, peers, []string{"a:1"}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if !n.readQuorum([]int{1, 2}) {
		t.Fatal("read quorum failed")
	}
	n.mu.Lock()
	v := n.view
	n.mu.Unlock()
	if v.term != 2 || v.seq != 3 || !slices.Equal(v.shards, newer.Shards) || !slices.Equal(v.dead, newer.Dead) {
		t.Fatalf("claimant adopted %+v, want the term-2 view %+v", v, newer)
	}
}
