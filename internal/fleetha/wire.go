package fleetha

import "gesp/internal/fleetrpc"

// The HA wire format rides the same HTTP+JSON transport as the shard
// protocol, under /ha/v1/. Three verbs: status (election probes and
// operator introspection), replicate (heartbeat + registry stream,
// one endpoint — a heartbeat is a replicate with no entries), and
// trace (the controller's decision log). Client-facing solve traffic
// uses the existing /v1/ shard-protocol paths on every node, with
// followers answering 307 redirects to the leader.

// RoleFollower/RoleLeader are the status wire values.
const (
	RoleFollower = "follower"
	RoleLeader   = "leader"
)

// StatusResponse is one node's election view — what peers read when
// deciding whether to defer, and what operators read to find the
// leader.
type StatusResponse struct {
	ID         int    `json:"id"`
	Term       uint64 `json:"term"`
	Role       string `json:"role"`
	LeaderID   int    `json:"leader_id"` // -1 when unknown
	LeaderAddr string `json:"leader_addr,omitempty"`
	// AppliedSeq is the follower's replication high-water mark;
	// RegistryLen its replicated handle count. On the leader these
	// describe its live fleet.
	AppliedSeq  uint64 `json:"applied_seq"`
	RegistryLen int    `json:"registry_len"`
	// Epoch is the membership epoch (monotonic per topology change) and
	// RingGen the leader's placement generation at last stream.
	Epoch   uint64 `json:"epoch"`
	RingGen uint64 `json:"ring_gen"`
}

// RegistryEntry is one replicated handle: the wire matrix under its
// serve handle, exactly what a takeover leader needs to seed its
// fleet's registry.
type RegistryEntry struct {
	Handle string                 `json:"handle"`
	Matrix fleetrpc.MatrixRequest `json:"matrix"`
}

// ReplicateRequest is the leader→follower stream: term-fenced
// heartbeat, registry entries the follower hasn't acked, and the
// leader's membership view. Full marks a snapshot (first contact each
// term): the follower replaces its registry instead of merging.
type ReplicateRequest struct {
	Term       uint64 `json:"term"`
	LeaderID   int    `json:"leader_id"`
	LeaderAddr string `json:"leader_addr"`
	// Seq is the leader's replication sequence for this batch; acks
	// carry it back so the leader knows the follower's high-water mark.
	Seq     uint64          `json:"seq"`
	Full    bool            `json:"full,omitempty"`
	Entries []RegistryEntry `json:"entries,omitempty"`
	// Shards/Dead/Epoch/RingGen are the leader's membership view: the
	// shard address list (ids = indexes), the dead ids, the epoch that
	// versions this view, and the leader's ring generation.
	Shards  []string `json:"shards"`
	Dead    []int    `json:"dead,omitempty"`
	Epoch   uint64   `json:"epoch"`
	RingGen uint64   `json:"ring_gen"`
}

// ReplicateResponse acks (or fences) a replicate. OK false with a
// higher Term is the deposition signal: the sender is a stale leader
// and must step down.
type ReplicateResponse struct {
	OK         bool   `json:"ok"`
	Term       uint64 `json:"term"`
	AppliedSeq uint64 `json:"applied_seq"`
}

// StateResponse is one node's exported replica — what an electing
// follower reads from every reachable peer (the read-quorum) so the
// union of a write-quorum ack and a read-quorum fetch always covers
// every acked handle, whichever follower wins the election.
type StateResponse struct {
	ID         int             `json:"id"`
	Term       uint64          `json:"term"`
	AppliedSeq uint64          `json:"applied_seq"`
	Entries    []RegistryEntry `json:"entries,omitempty"`
	Shards     []string        `json:"shards,omitempty"`
	Dead       []int           `json:"dead,omitempty"`
	Epoch      uint64          `json:"epoch"`
	RingGen    uint64          `json:"ring_gen"`
}

// TraceResponse is the controller's decision log.
type TraceResponse struct {
	Decisions []Decision `json:"decisions"`
}

// ConfigureRequest boots a spawned coordinator child: the re-exec
// payload only says "you are a coordinator"; the parent posts the full
// topology here once every child has announced its address (a child
// cannot know its peers' ports before they exist).
type ConfigureRequest struct {
	ID     int      `json:"id"`
	Peers  []string `json:"peers"` // all coordinator addrs, index = id
	Shards []string `json:"shards"`
	// LeaseMS/HeartbeatMS set the election timing (milliseconds on the
	// wire to keep the JSON obvious).
	LeaseMS     int64 `json:"lease_ms"`
	HeartbeatMS int64 `json:"heartbeat_ms"`
	Seed        int64 `json:"seed"`
	// Replication/HedgeAfterMS tune the leader's fleet; zero keeps the
	// fleetrpc defaults.
	Replication  int   `json:"replication,omitempty"`
	HedgeAfterMS int64 `json:"hedge_after_ms,omitempty"`
	// Controller, when non-nil, runs the SLO controller on the leader.
	Controller *ControllerConfig `json:"controller,omitempty"`
}
