package fleetha

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"gesp/internal/fleet"
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

// Scaler provisions shards for the SLO controller. Spawn returns the
// new shard; Drain retires the one previously spawned whose Addr is
// addr (called after the fleet has drained it from the ring).
type Scaler interface {
	Spawn() (fleetrpc.Shard, error)
	Drain(addr string) error
}

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
	// SeedRegistry, and DeadMembers are overwritten at takeover.
	Fleet fleetrpc.Config
	// Controller, when non-nil, runs the SLO control loop on the leader.
	Controller *ControllerConfig
	// Scaler backs the controller's spawn/drain decisions; nil disables
	// them (promote/demote still run).
	Scaler Scaler
	// Clock is the node's time source (WallClock when nil).
	Clock Clock
	// Seed drives election jitter; 0 takes ID+1 so co-started nodes
	// still draw different schedules.
	Seed int64
	// Logf, when set, receives one line per election event (takeover,
	// step-down, deposition) and controller decision.
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

// peerRepl is the leader's per-follower replication bookkeeping.
type peerRepl struct {
	// acked holds the handles this follower has confirmed; entries not
	// in it ride the next heartbeat.
	acked map[string]bool
	// needFull forces a snapshot on the next contact (set at takeover —
	// a new leader cannot know what its predecessor streamed where).
	needFull bool
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
	//gesp:guardedby:mu
	repl map[int]*peerRepl
	//gesp:guardedby:mu
	seq uint64
	//gesp:guardedby:mu
	rng *rand.Rand
	//gesp:guardedby:mu
	trace []Decision
	//gesp:guardedby:mu
	ctrl *Controller
	//gesp:guardedby:mu
	lastCtrl time.Time
	//gesp:guardedby:mu
	prevLatCounts [fleet.LatBuckets]uint64
	//gesp:guardedby:mu
	prevLatTotal uint64
	//gesp:guardedby:mu
	prevStats fleetrpc.Stats
	//gesp:guardedby:mu
	spawnedShards []spawnedShard

	state *replState
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

// spawnedShard records one controller-spawned shard by the member id
// AddMember assigned it — drains go by id, not by address, because
// member ids are append-only while an OS-recycled port can make a new
// shard reuse a dead member's address.
type spawnedShard struct {
	id   int
	addr string
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
		state:    newReplState(cfg.Shards),
		repl:     make(map[int]*peerRepl),
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
// follower, heartbeat/replication broadcasts and controller windows as
// leader. Ticks are jittered so co-started nodes drift apart.
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
		n.broadcastReplicate(nil)
		n.controllerTick(now)
	case leaseExpired:
		n.runElection(now)
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
func (n *Node) runElection(now time.Time) {
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
	n.becomeLeader(maxTerm+1, now)
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
			n.state.mergeRemote(st)
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

// becomeLeader builds a fleet seeded with the replicated registry and
// membership view, claims the term, and announces with a full
// snapshot broadcast. The snapshot and the role flip are made atomic
// by the replState generation: a replicate from a still-live old
// leader that lands (and is acked) between the snapshot and the flip
// bumps the generation, and the flip is retried from a fresher
// snapshot — so no entry can be acked to the old leader yet missing
// from the new leader's seeded fleet. The retry window is one fleet
// construction (no network), so a live old leader cannot starve it;
// once the flip lands, its next batch is term-fenced and un-acked.
func (n *Node) becomeLeader(term uint64, now time.Time) {
	for {
		registry, shards, dead, gen := n.state.snapshot()
		fcfg := n.cfg.Fleet
		fcfg.Shards = fleetrpc.Dial(shards)
		fcfg.SeedRegistry = registry
		fcfg.DeadMembers = dead
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
		if n.state.generation() != gen {
			// an entry was replicated to us (and acked to the old leader)
			// while the fleet was building; rebuild from a fresh snapshot
			n.mu.Unlock()
			fl.Close()
			continue
		}
		n.role = Leader
		n.term = term
		n.leaderID = n.cfg.ID
		n.leaderAddr = n.cfg.Peers[n.cfg.ID]
		n.fleet = fl
		for _, p := range n.peers {
			if p != nil {
				n.repl[p.id] = &peerRepl{acked: make(map[string]bool), needFull: true}
			}
		}
		n.startControllerLocked(fl, now)
		n.mu.Unlock()
		n.cfg.Logf("fleetha node %d: leading at term %d, %v after node start (%d seeded handles, %d shards, %d dead)",
			n.cfg.ID, term, n.clk.Now().Sub(n.started).Round(time.Millisecond), len(registry), len(shards), len(dead))
		n.broadcastReplicate(nil)
		return
	}
}

// stepDown demotes a deposed leader: the fleet's registry and
// membership fold back into the replica state (nothing newer than the
// last stream is lost locally) and the fleet closes.
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
		n.state.mergeFromFleet(fl.Registry(), fl.Addrs(), fl.DeadIDs())
		fl.Close()
	}
	n.cfg.Logf("fleetha node %d: stepping down to term %d (leader %d)", n.cfg.ID, newTerm, newLeaderID)
}

// buildReplicate assembles one peer's batch under mu: full snapshot on
// first contact, un-acked entries after. extra (a just-submitted
// entry) rides along regardless.
func (n *Node) buildReplicate(p *haPeer, extra []RegistryEntry) (ReplicateRequest, []string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.role != Leader || n.fleet == nil {
		return ReplicateRequest{}, nil, false
	}
	pr := n.repl[p.id]
	if pr == nil {
		pr = &peerRepl{acked: make(map[string]bool), needFull: true}
		n.repl[p.id] = pr
	}
	n.seq++
	req := ReplicateRequest{
		Term:       n.term,
		LeaderID:   n.cfg.ID,
		LeaderAddr: n.cfg.Peers[n.cfg.ID],
		Seq:        n.seq,
		Full:       pr.needFull,
		Shards:     n.fleet.Addrs(),
		Dead:       n.fleet.DeadIDs(),
		Epoch:      n.seq,
		RingGen:    n.fleet.RingGen(),
	}
	var sent []string
	reg := n.fleet.Registry()
	//gesp:unordered — entries are keyed by handle on the receiver; batch order is irrelevant
	for h, w := range reg {
		hs := h.String()
		if pr.needFull || !pr.acked[hs] {
			req.Entries = append(req.Entries, RegistryEntry{Handle: hs, Matrix: w})
			sent = append(sent, hs)
		}
	}
	for _, e := range extra {
		if !pr.acked[e.Handle] {
			req.Entries = append(req.Entries, e)
			sent = append(sent, e.Handle)
		}
	}
	return req, sent, true
}

// broadcastReplicate streams one batch to every peer and returns how
// many acked. A response carrying a higher term — or an equal term
// from a lower id — deposes this leader on the spot.
func (n *Node) broadcastReplicate(extra []RegistryEntry) (acks int) {
	type res struct {
		p    *haPeer
		sent []string
		resp ReplicateResponse
		err  error
	}
	var live []*haPeer
	for _, p := range n.peers {
		if p != nil {
			live = append(live, p)
		}
	}
	if len(live) == 0 {
		return 0
	}
	ch := make(chan res, len(live))
	launched := 0
	for _, p := range live {
		req, sent, ok := n.buildReplicate(p, extra)
		if !ok {
			break
		}
		launched++
		go func(p *haPeer, req ReplicateRequest, sent []string) {
			var resp ReplicateResponse
			body, err := req.MarshalBinary()
			if err == nil {
				body, err = p.call(n.cfg.Lease, http.MethodPost, "/ha/v1/replicate", fleetrpc.FrameContentType, body)
			}
			if err == nil {
				err = json.Unmarshal(body, &resp)
			}
			ch <- res{p: p, sent: sent, resp: resp, err: err}
		}(p, req, sent)
	}
	for i := 0; i < launched; i++ {
		r := <-ch
		if r.err != nil {
			continue
		}
		n.mu.Lock()
		myTerm := n.term
		n.mu.Unlock()
		if !r.resp.OK {
			if r.resp.Term > myTerm || (r.resp.Term == myTerm && r.p.id < n.cfg.ID) {
				// fenced: a newer (or lower-id same-term) leader exists
				n.stepDown(r.resp.Term, -1)
			}
			continue
		}
		acks++
		n.mu.Lock()
		if pr := n.repl[r.p.id]; pr != nil {
			pr.needFull = false
			for _, hs := range r.sent {
				pr.acked[hs] = true
			}
		}
		n.mu.Unlock()
	}
	return acks
}

// handleReplicate is the follower side of the stream: term fencing,
// then state application. The fence check and the apply hold n.mu
// together: a batch must not slip in between becomeLeader's snapshot
// generation check and its role flip, or the old leader would ack a
// submit whose entry the new leader's fleet never saw. (Lock order is
// always n.mu → state.mu; no path takes them reversed.)
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
	applied, err := n.state.apply(req)
	n.mu.Unlock()
	if err != nil {
		return ReplicateResponse{OK: false, Term: req.Term, AppliedSeq: applied}
	}
	return ReplicateResponse{OK: true, Term: req.Term, AppliedSeq: applied}
}

// Status snapshots the node's election view.
func (n *Node) Status() StatusResponse {
	n.mu.Lock()
	st := StatusResponse{
		ID:       n.cfg.ID,
		Term:     n.term,
		Role:     n.role.String(),
		LeaderID: n.leaderID,
	}
	if n.leaderID >= 0 && n.leaderID < len(n.cfg.Peers) {
		st.LeaderAddr = n.cfg.Peers[n.leaderID]
	}
	fl, seq := n.fleet, n.seq
	n.mu.Unlock()
	if fl != nil {
		st.AppliedSeq, st.RegistryLen, st.Epoch, st.RingGen = seq, fl.RegistryLen(), seq, fl.RingGen()
	} else {
		st.AppliedSeq, st.RegistryLen, st.Epoch, st.RingGen = n.state.stats()
	}
	return st
}

// ExportState dumps the node's replica — the live fleet view when
// leading, the replicated state otherwise — for a peer's read-quorum
// fetch during its election.
func (n *Node) ExportState() StateResponse {
	n.mu.Lock()
	fl := n.fleet
	term := n.term
	seq := n.seq
	n.mu.Unlock()
	var st StateResponse
	if fl != nil {
		reg := fl.Registry()
		st = StateResponse{
			AppliedSeq: seq,
			Shards:     fl.Addrs(),
			Dead:       fl.DeadIDs(),
			Epoch:      seq,
			RingGen:    fl.RingGen(),
		}
		st.Entries = make([]RegistryEntry, 0, len(reg))
		//gesp:unordered — entries are keyed by handle on the receiver; export order is irrelevant
		for h, w := range reg {
			st.Entries = append(st.Entries, RegistryEntry{Handle: h.String(), Matrix: w})
		}
	} else {
		st = n.state.export()
	}
	st.ID, st.Term = n.cfg.ID, term
	return st
}

// Role reports the node's current role.
func (n *Node) Role() Role {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role
}

// Trace snapshots the controller decision log.
func (n *Node) Trace() []Decision {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]Decision(nil), n.trace...)
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
		acks := n.broadcastReplicate([]RegistryEntry{{Handle: h.String(), Matrix: m}})
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
