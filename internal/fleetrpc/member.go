package fleetrpc

import (
	"sync"
	"sync/atomic"
	"time"
)

// MemberState is the health state machine's position for one shard:
//
//	alive ──failures≥SuspectAfter──▶ suspect ──failures≥DeadAfter──▶ dead
//	  ▲                                 │                              │
//	  └────────── any success ──────────┴───────── any success ────────┘
//
// Failures come from two feeds — the periodic health prober and
// transport errors on real requests — so a dead shard is usually
// detected in one probe interval even with zero traffic, and faster
// under load. A suspect member still serves (requests it holds the
// only factors for would otherwise refactor), but placement prefers
// alive members. A dead member leaves the ring entirely: its keys move
// to the ring successors and the coordinator re-replicates every
// registered pattern whose placement changed.
type MemberState int32

const (
	StateAlive MemberState = iota
	StateSuspect
	StateDead
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return "unknown"
}

// MemberStatus is one member's externally visible health snapshot.
// ChangedAt timestamps the last state transition — the fleetproc
// experiment measures failover detection latency as the dead
// transition's ChangedAt minus the kill time.
type MemberStatus struct {
	ID        int       `json:"id"`
	Addr      string    `json:"addr"`
	State     string    `json:"state"`
	Failures  int       `json:"failures"`
	ChangedAt time.Time `json:"changed_at"`
	// QueueDepth is the member's congestion gauge: the larger of the
	// shard's queued-work gauge at its latest healthy probe and the
	// solves this coordinator has in flight to it right now. The probe
	// is a point sample of the shard's batcher, which a request held up
	// before it reaches the queue never occupies; the in-flight count
	// sees that request for as long as it is outstanding.
	QueueDepth int64         `json:"queue_depth"`
	Sickness   time.Duration `json:"-"` // time since leaving alive; 0 when alive
}

// member is one shard in the router's membership table. The id is its
// index in Fleet.members and its shard id on the ring; both are fixed
// at construction, as is the shard. Everything health-related is
// guarded.
type member struct {
	id int
	sh Shard
	// inflight counts the solves the router has launched at this member
	// and not yet reaped.
	inflight atomic.Int64

	mu sync.Mutex
	//gesp:guardedby:mu
	state MemberState
	//gesp:guardedby:mu
	failures int
	//gesp:guardedby:mu
	changedAt time.Time
	//gesp:guardedby:mu
	lastQueue int64
}

func newMember(id int, sh Shard, now time.Time) *member {
	return &member{id: id, sh: sh, changedAt: now}
}

// currentState reads the member's state.
func (m *member) currentState() MemberState {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// failureCount reads the member's consecutive-failure count — the
// retry layer's sickness signal (folded into the backoff schedule and
// reset by the member's first success).
func (m *member) failureCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.failures
}

// noteHealth stores the gauges from a healthy probe response.
func (m *member) noteHealth(res HealthResponse) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lastQueue = res.QueueDepth
}

// reportFailure counts one failed probe or transport-failed request
// and advances the state machine. It returns true exactly once per
// death — the caller's cue to rebuild the ring and re-replicate.
func (m *member) reportFailure(suspectAfter, deadAfter int, now time.Time) (died bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failures++
	switch {
	case m.state == StateAlive && m.failures >= suspectAfter:
		m.state = StateSuspect
		m.changedAt = now
	case m.state == StateSuspect && m.failures >= deadAfter:
		m.state = StateDead
		m.changedAt = now
		return true
	}
	return false
}

// reportSuccess records a request-path success: failures reset and a
// suspect recovers. Dead members stay dead here — a drained shard
// still answers requests (with 503s that decode fine), and only the
// prober, which can see the health status, may resurrect.
func (m *member) reportSuccess(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == StateDead {
		return
	}
	if m.state == StateSuspect {
		m.state = StateAlive
		m.changedAt = now
	}
	m.failures = 0
}

// reviveOnProbe records a healthy probe that was sent at probedAt:
// failures reset, any state returns to alive. It returns true exactly
// once per dead→alive transition — the caller's cue to rebuild the
// ring with the member back in. A probe sent before the member was
// declared dead says nothing about it since: an answer that was in
// flight across a drain must not resurrect the drained shard.
func (m *member) reviveOnProbe(probedAt, now time.Time) (rejoined bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state == StateDead && probedAt.Before(m.changedAt) {
		return false
	}
	rejoined = m.state == StateDead
	if m.state != StateAlive {
		m.state = StateAlive
		m.changedAt = now
	}
	m.failures = 0
	return rejoined
}

// markDead administratively kills the member — the graceful-drain
// path, where the shard said goodbye instead of going silent.
func (m *member) markDead(now time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.state != StateDead {
		m.state = StateDead
		m.changedAt = now
	}
}

// status snapshots the member for Fleet.Members.
func (m *member) status(now time.Time) MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := MemberStatus{
		ID:         m.id,
		Addr:       m.sh.Addr(),
		State:      m.state.String(),
		Failures:   m.failures,
		ChangedAt:  m.changedAt,
		QueueDepth: max(m.lastQueue, m.inflight.Load()),
	}
	if m.state != StateAlive {
		st.Sickness = now.Sub(m.changedAt)
	}
	return st
}
