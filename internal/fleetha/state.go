package fleetha

import (
	"sync"

	"gesp/internal/fleetrpc"
	"gesp/internal/serve"
)

// replState is a follower's replica of the leader's durable state: the
// registry of every acked handle plus the membership view. On
// takeover it becomes the new leader's fleetrpc seed — which is the
// whole point: the registry must not die with the coordinator.
type replState struct {
	mu sync.Mutex
	//gesp:guardedby:mu
	registry map[serve.Handle]fleetrpc.Matrix
	//gesp:guardedby:mu
	shards []string
	//gesp:guardedby:mu
	dead []int
	//gesp:guardedby:mu
	epoch uint64
	//gesp:guardedby:mu
	ringGen uint64
	//gesp:guardedby:mu
	appliedSeq uint64
	// gen counts registry mutations. A takeover snapshots (registry,
	// gen), builds its fleet, and flips to leader only if gen is still
	// the snapshot's — otherwise an entry applied (and acked to the old
	// leader) mid-build would be acked-but-unseeded. Heartbeats with no
	// entries do not bump it, so a still-streaming old leader cannot
	// livelock a takeover.
	//gesp:guardedby:mu
	gen uint64
}

func newReplState(shards []string) *replState {
	return &replState{
		registry: make(map[serve.Handle]fleetrpc.Matrix),
		shards:   append([]string(nil), shards...),
	}
}

// apply merges one replicate batch. Term fencing happened upstream —
// by the time state applies, the sender is the accepted leader.
func (s *replState) apply(req ReplicateRequest) (appliedSeq uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if req.Full {
		s.registry = make(map[serve.Handle]fleetrpc.Matrix, len(req.Entries))
		s.gen++
	}
	for _, e := range req.Entries {
		h, perr := serve.ParseHandle(e.Handle)
		if perr != nil {
			return s.appliedSeq, perr
		}
		s.registry[h] = e.Matrix
		s.gen++
	}
	if len(req.Shards) > 0 {
		s.shards = append(s.shards[:0], req.Shards...)
	}
	s.dead = append(s.dead[:0], req.Dead...)
	if req.Epoch > s.epoch {
		s.epoch = req.Epoch
	}
	if req.RingGen > s.ringGen {
		s.ringGen = req.RingGen
	}
	if req.Seq > s.appliedSeq {
		s.appliedSeq = req.Seq
	}
	return s.appliedSeq, nil
}

// snapshot copies the replica for a takeover: the registry seeds the
// new leader's fleet, the shard/dead lists rebuild its membership, and
// gen lets the caller detect entries applied after the copy.
func (s *replState) snapshot() (registry map[serve.Handle]fleetrpc.Matrix, shards []string, dead []int, gen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	registry = make(map[serve.Handle]fleetrpc.Matrix, len(s.registry))
	//gesp:unordered — map copy; the seeded fleet re-sorts its own views
	for h, w := range s.registry {
		registry[h] = w
	}
	return registry, append([]string(nil), s.shards...), append([]int(nil), s.dead...), s.gen
}

// generation reads the registry mutation counter.
func (s *replState) generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// mergeFromFleet folds a deposed leader's fleet view back into the
// replica: registry entries union in, membership is replaced.
func (s *replState) mergeFromFleet(registry map[serve.Handle]fleetrpc.Matrix, shards []string, dead []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	//gesp:unordered — map union; last-writer-wins per key, keys disjointly owned
	for h, w := range registry {
		s.registry[h] = w
	}
	s.shards = append(s.shards[:0], shards...)
	s.dead = append(s.dead[:0], dead...)
	s.gen++
}

// mergeRemote unions a peer's exported replica into this one — the
// election's read-quorum step. Registry entries union in (a handle the
// old leader acked to only one follower must survive whichever
// follower wins); membership is adopted wholesale from the peer with
// the higher replication high-water mark, since it heard the old
// leader last.
func (s *replState) mergeRemote(st StateResponse) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range st.Entries {
		h, err := serve.ParseHandle(e.Handle)
		if err != nil {
			continue //gesp:errok — a malformed remote entry cannot be seeded; skip it rather than reject the rest
		}
		if _, ok := s.registry[h]; !ok {
			s.registry[h] = e.Matrix
			s.gen++
		}
	}
	if st.AppliedSeq > s.appliedSeq {
		s.appliedSeq = st.AppliedSeq
		if len(st.Shards) > 0 {
			s.shards = append(s.shards[:0], st.Shards...)
		}
		s.dead = append(s.dead[:0], st.Dead...)
	}
	if st.Epoch > s.epoch {
		s.epoch = st.Epoch
	}
	if st.RingGen > s.ringGen {
		s.ringGen = st.RingGen
	}
}

// export dumps the replica for a peer's read-quorum fetch.
func (s *replState) export() StateResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StateResponse{
		AppliedSeq: s.appliedSeq,
		Shards:     append([]string(nil), s.shards...),
		Dead:       append([]int(nil), s.dead...),
		Epoch:      s.epoch,
		RingGen:    s.ringGen,
	}
	st.Entries = make([]RegistryEntry, 0, len(s.registry))
	//gesp:unordered — entries are keyed by handle on the receiver; export order is irrelevant
	for h, w := range s.registry {
		st.Entries = append(st.Entries, RegistryEntry{Handle: h.String(), Matrix: w})
	}
	return st
}

func (s *replState) stats() (appliedSeq uint64, registryLen int, epoch, ringGen uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appliedSeq, len(s.registry), s.epoch, s.ringGen
}
