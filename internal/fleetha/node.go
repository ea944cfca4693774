package fleetha

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"gesp/internal/fleetrpc"
	"gesp/internal/serve"
)

// Election design: deterministic bully-with-lease. Every node knows
// the full coordinator list (ids = indexes). The leader streams
// jittered heartbeats; a follower whose lease expires (a node that has
// never heard a leader: one heartbeat of silence) probes every
// peer's /ha/v1/status — if any *lower-id* peer answers, it defers
// (the lower id will claim, or already has); if none does, it claims
// leadership at term max(seen)+1. The term is the fencing token:
// followers reject replication from any term below their own, a
// deposed leader steps down the moment any response shows a higher
// term, and equal-term collisions (two nodes electing in the same
// lease window) resolve toward the lower id. Lowest live id always
// wins — no randomized votes, so the failover target is predictable
// and the election needs exactly one probe round.
//
// Durability: the leader acks a client submit only after a majority
// of the coordinator set holds the registry entry — itself plus
// floor(N/2) followers — and a claimant completes its election only
// after reading (and unioning) the replicas of enough peers that its
// read set intersects every possible write set: itself plus
// ceil(N/2)-1 peers. Any acked entry therefore lives on at least one
// node the winner read, whichever follower wins — the lowest live id
// never takes over with a registry missing an acked handle, even when
// the ack landed on a different follower. Solves are idempotent and
// stateless, so a stale leader serving one last solve is harmless;
// the fencing protects the registry and membership view. The price is
// availability: with fewer than a majority of coordinators reachable,
// submits fail retryably and takeovers wait (lone-node and two-node
// deployments degenerate gracefully — the only follower holds every
// acked entry, so it may claim alone).

// Role is a node's election position.
type Role int32

const (
	Follower Role = iota
	Leader
)

func (r Role) String() string {
	if r == Leader {
		return RoleLeader
	}
	return RoleFollower
}

// Config parameterizes one coordinator node.
type Config struct {
	// ID is this node's index in Peers.
	ID int
	// Peers is the full coordinator address list, every node the same
	// order — ids are indexes.
	Peers []string
	// Shards is the initial shard address list (the leader's fleet
	// membership; followers learn the live view from the stream).
	Shards []string
	// Lease is how long a follower tolerates heartbeat silence before
	// probing for an election (0 takes 1s). Failover detection latency
	// is roughly one lease plus one probe round. A node that has never
	// heard a leader probes after one Heartbeat of silence instead.
	Lease time.Duration
	// Heartbeat is the leader's replication cadence (0 takes Lease/4,
	// and is clamped to at most Lease/3 so a healthy leader can always
	// refresh the lease with margin).
	Heartbeat time.Duration
	// Fleet is the template for the leader's shard coordinator; Shards,
	// Registry, and DeadMembers are overwritten at takeover.
	Fleet fleetrpc.Config
	// Clock is the node's time source (WallClock when nil).
	Clock Clock
	// Seed drives election jitter; 0 takes ID+1 so co-started nodes
	// still draw different schedules.
	Seed int64
	// Logf, when set, receives one line per election event (takeover,
	// deferred takeover, step-down).
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Lease <= 0 {
		c.Lease = time.Second
	}
	if c.Heartbeat <= 0 || c.Heartbeat > c.Lease/3 {
		c.Heartbeat = c.Lease / 4
	}
	if c.Clock == nil {
		c.Clock = WallClock{}
	}
	if c.Seed == 0 {
		c.Seed = int64(c.ID) + 1
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Node is one replicated coordinator.
type Node struct {
	cfg     Config
	clk     Clock
	started time.Time // clk at NewNode

	mu sync.Mutex
	//gesp:guardedby:mu
	role Role
	//gesp:guardedby:mu
	term uint64
	//gesp:guardedby:mu
	leaderID int
	//gesp:guardedby:mu
	leaderAddr string
	//gesp:guardedby:mu
	lastBeat time.Time
	//gesp:guardedby:mu
	fleet *fleetrpc.Fleet
	// acked is, per peer id, the registry log position that follower
	// has confirmed while this node leads: its next batch carries the
	// log from there on. A takeover starts every peer at 0 — a new
	// leader cannot know what its predecessor streamed where, and its
	// log is in its own order.
	//gesp:guardedby:mu
	acked []int
	//gesp:guardedby:mu
	seq uint64
	// view is the replicated membership and its high-water mark; a
	// leader adopts its own batches, so it stays current there too.
	//gesp:guardedby:mu
	view view
	//gesp:guardedby:mu
	rng *rand.Rand

	// reg is the node's registry for its lifetime: follower apply, the
	// election's read-quorum merge and the leader's fleet all write it.
	reg   *fleetrpc.Registry
	peers []*haPeer // nil at own index

	stop    chan struct{}
	stopped sync.Once
	wg      sync.WaitGroup
}

// haPeer is one fellow coordinator.
type haPeer struct {
	id   int
	addr string
	hc   *http.Client
}

// call runs one control-plane round trip against the peer, bounded by
// half a lease: body (nil for none) goes out as contentType, and a 200
// answer's body comes back.
func (p *haPeer) call(lease time.Duration, method, path, contentType string, body []byte) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), lease/2)
	defer cancel()
	return fleetrpc.DoBytes(ctx, p.hc, method, "http://"+p.addr+path, contentType, body)
}

// submitAcksNeeded is how many follower acks a submit requires before
// the client is acked: floor(N/2), which with the leader itself makes
// a majority of the coordinator set.
func (n *Node) submitAcksNeeded() int {
	return len(n.cfg.Peers) / 2
}

// electionReadsNeeded is how many peer replicas (besides our own) a
// claimant must fetch and union before taking over: the read set
// {self + fetched} must intersect every write set {old leader +
// floor(N/2) followers}, which needs ceil(N/2) reads total.
func (n *Node) electionReadsNeeded() int {
	return (len(n.cfg.Peers)+1)/2 - 1
}

// NewNode builds and starts a coordinator node. Every node starts as
// a follower that has heard no leader; the lowest live id claims
// leadership after one heartbeat of silence (or adopts an existing
// leader, from its first heartbeat or the election's probe).
func NewNode(cfg Config) (*Node, error) {
	if cfg.ID < 0 || cfg.ID >= len(cfg.Peers) {
		return nil, fmt.Errorf("fleetha: node id %d outside peer list of %d", cfg.ID, len(cfg.Peers))
	}
	cfg.fill()
	n := &Node{
		cfg:      cfg,
		clk:      cfg.Clock,
		leaderID: -1,
		view:     view{shards: cfg.Shards},
		reg:      new(fleetrpc.Registry),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		stop:     make(chan struct{}),
	}
	n.started = n.clk.Now()
	n.lastBeat = n.started
	n.peers = make([]*haPeer, len(cfg.Peers))
	for i, addr := range cfg.Peers {
		if i == cfg.ID {
			continue
		}
		n.peers[i] = &haPeer{id: i, addr: addr, hc: fleetrpc.NewHTTPClient()}
	}
	n.wg.Add(1)
	go n.run()
	return n, nil
}

// Close stops the node, closing its fleet if it was leading.
func (n *Node) Close() {
	n.stopped.Do(func() { close(n.stop) })
	n.wg.Wait()
	n.mu.Lock()
	f := n.fleet
	n.fleet = nil
	n.mu.Unlock()
	if f != nil {
		f.Close()
	}
}

// run is the node's single control goroutine: lease checks as
// follower, heartbeat/replication broadcasts as leader. Ticks are
// jittered so co-started nodes drift apart.
func (n *Node) run() {
	defer n.wg.Done()
	t := time.NewTimer(n.tickWait())
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.tick()
			t.Reset(n.tickWait())
		}
	}
}

func (n *Node) tickWait() time.Duration {
	n.mu.Lock()
	u := n.rng.Float64()
	n.mu.Unlock()
	base := n.cfg.Heartbeat
	return time.Duration(float64(base) * (0.8 + 0.4*u))
}

// tick runs one control step.
func (n *Node) tick() {
	n.mu.Lock()
	role := n.role
	now := n.clk.Now()
	leaseExpired := role == Follower && now.Sub(n.lastBeat) > n.silenceLimitLocked()
	n.mu.Unlock()
	switch {
	case role == Leader:
		n.broadcastReplicate()
	case leaseExpired:
		n.runElection()
	}
}

// silenceLimitLocked is how much heartbeat silence a follower
// tolerates before it runs an election: the lease once it has heard a
// leader (its term is then ≥ 1, as every leader's is), one heartbeat
// before that. A fresh node need not wait out a lease, because the
// election's probe and read quorum, not the wait, find an existing
// leader. Either way the limit is widened by up to 30% of the lease
// from the seeded source so co-expiring followers don't probe in
// lockstep.
//
//gesp:holds:n.mu
func (n *Node) silenceLimitLocked() time.Duration {
	base := n.cfg.Lease
	if n.term == 0 {
		base = n.cfg.Heartbeat
	}
	return base + time.Duration(float64(n.cfg.Lease)*0.3*n.rng.Float64())
}

// runElection probes every peer; any reachable lower id means defer,
// none means claim — but only after reading a quorum of peer replicas
// and unioning them into our own (see the durability comment above):
// the winner must hold every handle any follower acked, not just the
// ones the old leader happened to stream to *us*.
func (n *Node) runElection() {
	type probeRes struct {
		id int
		st StatusResponse
		ok bool
	}
	results := make(chan probeRes, len(n.peers))
	probes := 0
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		probes++
		go func(p *haPeer) {
			var st StatusResponse
			res, err := p.call(n.cfg.Lease, http.MethodGet, "/ha/v1/status", "", nil)
			if err == nil {
				err = json.Unmarshal(res, &st)
			}
			results <- probeRes{id: p.id, st: st, ok: err == nil}
		}(p)
	}
	var maxTerm uint64
	lowerAlive := false
	leaderSeen := -1
	leaderAddr := ""
	var leaderTerm uint64
	var reachable []int
	for i := 0; i < probes; i++ {
		r := <-results
		if !r.ok {
			continue
		}
		reachable = append(reachable, r.id)
		if r.st.Term > maxTerm {
			maxTerm = r.st.Term
		}
		if r.id < n.cfg.ID {
			lowerAlive = true
		}
		// a status is self-describing: a peer claiming leadership names
		// itself. A mismatched or out-of-range id is a misconfigured peer
		// — ignore its claim rather than index Peers with it and panic.
		if r.st.Role == RoleLeader && r.st.ID == r.id && r.st.Term >= leaderTerm {
			leaderSeen, leaderAddr, leaderTerm = r.id, n.cfg.Peers[r.id], r.st.Term
		}
	}
	n.mu.Lock()
	if n.role != Follower {
		n.mu.Unlock()
		return
	}
	if n.term > maxTerm {
		maxTerm = n.term
	}
	if lowerAlive || leaderSeen >= 0 {
		// a lower id is alive (it will claim, or already leads) or some
		// peer is leading: extend the lease and adopt what we learned
		n.lastBeat = n.clk.Now()
		if leaderSeen >= 0 && leaderTerm >= n.term {
			n.term = leaderTerm
			n.leaderID = leaderSeen
			n.leaderAddr = leaderAddr
		}
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	if !n.readQuorum(reachable) {
		// fewer than a quorum of replicas readable: an acked entry could
		// live only on an unreachable peer, so taking over now could
		// violate the durability contract. Extend the lease and retry.
		n.cfg.Logf("fleetha node %d: deferring takeover: %d/%d peer replicas readable, need %d",
			n.cfg.ID, len(reachable), probes, n.electionReadsNeeded())
		n.mu.Lock()
		n.lastBeat = n.clk.Now()
		n.mu.Unlock()
		return
	}
	n.becomeLeader(maxTerm + 1)
}

// readQuorum fetches and unions the exported replicas of the probed
// peers, reporting whether enough succeeded that our merged state is
// guaranteed to cover every majority-acked entry.
func (n *Node) readQuorum(reachable []int) bool {
	need := n.electionReadsNeeded()
	if need == 0 {
		return true
	}
	ch := make(chan bool, len(reachable))
	launched := 0
	for _, id := range reachable {
		p := n.peers[id]
		if p == nil {
			continue
		}
		launched++
		go func(p *haPeer) {
			var st StateResponse
			res, err := p.call(n.cfg.Lease, http.MethodGet, "/ha/v1/state", "", nil)
			if err == nil {
				err = st.UnmarshalBinary(res)
			}
			if err != nil {
				ch <- false
				return
			}
			for _, e := range st.Entries {
				n.reg.Put(e)
			}
			n.mu.Lock()
			n.view.adopt(st.view())
			n.mu.Unlock()
			ch <- true
		}(p)
	}
	fetched := 0
	for i := 0; i < launched; i++ {
		if <-ch {
			fetched++
		}
	}
	return fetched >= need
}

// becomeLeader builds a fleet over the node's registry and replicated
// membership, claims the term, and announces with a broadcast that
// sends every follower the whole log. No entry can be acked to a
// still-live old leader yet missing from the new fleet: one applied
// before the role flip is already in the registry the fleet reads, and
// the term fence rejects every batch after it.
func (n *Node) becomeLeader(term uint64) {
	n.mu.Lock()
	v := n.view
	n.mu.Unlock()
	fcfg := n.cfg.Fleet
	fcfg.Shards = fleetrpc.Dial(v.shards)
	fcfg.Registry = n.reg
	fcfg.DeadMembers = v.dead
	if fcfg.Seed == 0 {
		fcfg.Seed = n.cfg.Seed
	}
	fl, err := fleetrpc.New(fcfg)
	if err != nil {
		n.cfg.Logf("fleetha node %d: cannot take leadership: %v", n.cfg.ID, err)
		n.mu.Lock()
		n.lastBeat = n.clk.Now()
		n.mu.Unlock()
		return
	}
	n.mu.Lock()
	if n.role == Leader || n.term >= term {
		// lost a race with an incoming higher-term heartbeat
		n.mu.Unlock()
		fl.Close()
		return
	}
	n.role = Leader
	n.term = term
	n.leaderID = n.cfg.ID
	n.leaderAddr = n.cfg.Peers[n.cfg.ID]
	n.fleet = fl
	n.acked = make([]int, len(n.peers))
	n.mu.Unlock()
	n.cfg.Logf("fleetha node %d: leading at term %d, %v after node start (%d handles, %d shards, %d dead)",
		n.cfg.ID, term, n.clk.Now().Sub(n.started).Round(time.Millisecond), n.reg.Len(), len(v.shards), len(v.dead))
	n.broadcastReplicate()
}

// stepDown demotes a deposed leader and closes its fleet. The registry
// and the membership view (adopted from its own last batch) stay the
// node's.
func (n *Node) stepDown(newTerm uint64, newLeaderID int) {
	n.mu.Lock()
	if n.role != Leader {
		if newTerm > n.term {
			n.term = newTerm
		}
		n.mu.Unlock()
		return
	}
	fl := n.fleet
	n.fleet = nil
	n.role = Follower
	n.term = newTerm
	n.leaderID = newLeaderID
	if newLeaderID >= 0 && newLeaderID < len(n.cfg.Peers) {
		n.leaderAddr = n.cfg.Peers[newLeaderID]
	} else {
		n.leaderAddr = ""
	}
	n.lastBeat = n.clk.Now()
	n.mu.Unlock()
	if fl != nil {
		fl.Close()
	}
	n.cfg.Logf("fleetha node %d: stepping down to term %d (leader %d)", n.cfg.ID, newTerm, newLeaderID)
}

// broadcastReplicate streams one batch to every peer and returns how
// many acked. A peer's batch is the registry log from its acked
// position on: the whole log on first contact, a submit's entry once,
// no entries once it has caught up, and after a failed call the same
// tail again. A response carrying a higher term — or an equal term
// from a lower id — deposes this leader on the spot.
func (n *Node) broadcastReplicate() (acks int) {
	type res struct {
		p    *haPeer
		end  int
		resp ReplicateResponse
		err  error
	}
	n.mu.Lock()
	if n.role != Leader || n.fleet == nil {
		n.mu.Unlock()
		return 0
	}
	n.seq++
	hdr := ReplicateRequest{
		Term:       n.term,
		LeaderID:   n.cfg.ID,
		LeaderAddr: n.cfg.Peers[n.cfg.ID],
		Seq:        n.seq,
		Shards:     n.fleet.Addrs(),
		Dead:       n.fleet.DeadIDs(),
		RingGen:    n.fleet.RingGen(),
	}
	n.view.adopt(hdr.view())
	from := append([]int(nil), n.acked...)
	n.mu.Unlock()
	ch := make(chan res, len(n.peers))
	launched := 0
	for _, p := range n.peers {
		if p == nil {
			continue
		}
		launched++
		req := hdr
		req.Entries = n.reg.Since(from[p.id])
		go func(p *haPeer, req ReplicateRequest, end int) {
			var resp ReplicateResponse
			body, err := req.MarshalBinary()
			if err == nil {
				body, err = p.call(n.cfg.Lease, http.MethodPost, "/ha/v1/replicate", fleetrpc.FrameContentType, body)
			}
			if err == nil {
				err = json.Unmarshal(body, &resp)
			}
			ch <- res{p: p, end: end, resp: resp, err: err}
		}(p, req, from[p.id]+len(req.Entries))
	}
	for i := 0; i < launched; i++ {
		r := <-ch
		if r.err != nil {
			continue
		}
		if !r.resp.OK {
			if r.resp.Term > hdr.Term || (r.resp.Term == hdr.Term && r.p.id < n.cfg.ID) {
				// fenced: a newer (or lower-id same-term) leader exists
				n.stepDown(r.resp.Term, -1)
			}
			continue
		}
		acks++
		n.mu.Lock()
		if n.role == Leader && n.term == hdr.Term && r.end > n.acked[r.p.id] {
			n.acked[r.p.id] = r.end
		}
		n.mu.Unlock()
	}
	return acks
}

// handleReplicate is the follower side of the stream: term fencing,
// then the apply — the entries union into the registry (none is ever
// dropped, so no leader's batch can erase what a follower holds) and
// the membership view is adopted if it is newer. The fence check and
// the apply hold n.mu together, so a batch is either applied before a
// takeover's role flip or fenced after it. (Lock order is always n.mu
// → the registry's lock; no path takes them reversed.)
func (n *Node) handleReplicate(req ReplicateRequest) ReplicateResponse {
	n.mu.Lock()
	switch {
	case req.Term < n.term:
		resp := ReplicateResponse{OK: false, Term: n.term}
		n.mu.Unlock()
		return resp
	case req.Term == n.term && n.role == Leader && req.LeaderID > n.cfg.ID:
		// equal-term collision, we are the lower id: reject; the sender
		// steps down on seeing our id
		resp := ReplicateResponse{OK: false, Term: n.term}
		n.mu.Unlock()
		return resp
	case n.role == Leader:
		// deposed by a higher term (or an equal-term lower id)
		n.mu.Unlock()
		n.stepDown(req.Term, req.LeaderID)
		n.mu.Lock()
		if req.Term < n.term {
			// the world moved while we were stepping down
			resp := ReplicateResponse{OK: false, Term: n.term}
			n.mu.Unlock()
			return resp
		}
	}
	n.term = req.Term
	n.leaderID = req.LeaderID
	n.leaderAddr = req.LeaderAddr
	n.lastBeat = n.clk.Now()
	for _, e := range req.Entries {
		n.reg.Put(e)
	}
	n.view.adopt(req.view())
	resp := ReplicateResponse{OK: true, Term: req.Term, AppliedSeq: n.view.seq}
	n.mu.Unlock()
	return resp
}

// Status snapshots the node's election view.
func (n *Node) Status() StatusResponse {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := StatusResponse{
		ID:          n.cfg.ID,
		Term:        n.term,
		Role:        n.role.String(),
		LeaderID:    n.leaderID,
		AppliedSeq:  n.view.seq,
		RegistryLen: n.reg.Len(),
		RingGen:     n.view.ringGen,
	}
	if n.leaderID >= 0 && n.leaderID < len(n.cfg.Peers) {
		st.LeaderAddr = n.cfg.Peers[n.leaderID]
	}
	return st
}

// ExportState dumps the node's replica — the registry log and the
// membership view — for a peer's read-quorum fetch during its
// election.
func (n *Node) ExportState() StateResponse {
	n.mu.Lock()
	v := n.view
	n.mu.Unlock()
	return StateResponse{ID: n.cfg.ID, Term: v.term, AppliedSeq: v.seq, Entries: n.reg.Since(0),
		Shards: v.shards, Dead: v.dead, RingGen: v.ringGen}
}

// Role reports the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// errNotLeader marks a request that must go to the leader. The gate
// redirects before it can arise; a node deposed between the gate and
// the call answers it, and to a client that is a closed coordinator:
// retryable, and the retry finds the redirect.
var errNotLeader = fmt.Errorf("fleetha: not the leader: %w", serve.ErrClosed)

// leaderFleet returns the fleet if this node leads, or the redirect
// target.
func (n *Node) leaderFleet() (*fleetrpc.Fleet, string, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role == Leader && n.fleet != nil {
		return n.fleet, "", nil
	}
	return nil, n.leaderAddr, errNotLeader
}

// Submit registers a matrix on the leading node: factor on the shards,
// then replicate the registry entry to floor(N/2) followers — a
// majority of the coordinator set counting the leader — before acking.
// Paired with the election's read-quorum, this is the durability
// contract that makes leader SIGKILL lose nothing: every possible
// winner's read set intersects the entry's write set.
func (n *Node) Submit(ctx context.Context, m fleetrpc.Matrix) (serve.Handle, error) {
	fl, _, err := n.leaderFleet()
	if err != nil {
		return serve.Handle{}, err
	}
	h, err := fl.Submit(ctx, m)
	if err != nil {
		return serve.Handle{}, err
	}
	if need := n.submitAcksNeeded(); need > 0 {
		acks := n.broadcastReplicate()
		if acks < need {
			if n.Role() != Leader {
				return serve.Handle{}, errNotLeader
			}
			return serve.Handle{}, fleetrpc.StatusError(http.StatusServiceUnavailable,
				fmt.Sprintf("fleetha: %d of %d required follower acks for the registry entry; retry", acks, need), 0)
		}
	}
	return h, nil
}

// SolveWire routes one encoded solve through the leading node's fleet,
// as bytes.
func (n *Node) SolveWire(ctx context.Context, h serve.Handle, body []byte) ([]byte, error) {
	fl, _, err := n.leaderFleet()
	if err != nil {
		return nil, err
	}
	return fl.SolveWire(ctx, h, body)
}

// Stats is the leading node's fleet counters (zero on a follower,
// which the gate never lets a client ask).
func (n *Node) Stats() fleetrpc.Stats {
	fl, _, err := n.leaderFleet()
	if err != nil {
		return fleetrpc.Stats{}
	}
	return fl.Stats()
}
