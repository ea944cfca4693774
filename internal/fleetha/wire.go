package fleetha

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"gesp/internal/fleetrpc"
	"gesp/internal/serve"
)

// The HA wire format rides the same HTTP transport as the shard
// protocol, under /ha/v1/. Three verbs: status (election probes and
// operator introspection), replicate (heartbeat + registry stream,
// one endpoint — a heartbeat is a replicate with no entries) and state
// (a replica, for the election's read-quorum). Status is JSON;
// replicate's request and state's answer carry registry matrices, so
// they are one binary frame each (see encodeFrame). Client-facing solve traffic
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
	// AppliedSeq is the sequence of the last leader batch the node's
	// membership view came from (a leader's own last batch);
	// RegistryLen its registry's entry count; RingGen the leader's
	// placement generation in that batch.
	AppliedSeq  uint64 `json:"applied_seq"`
	RegistryLen int    `json:"registry_len"`
	RingGen     uint64 `json:"ring_gen"`
}

// ReplicateRequest is the leader→follower stream: term-fenced
// heartbeat, the registry log from the follower's acked position on,
// and the leader's membership view. A follower unions the entries into
// its registry; it never drops one.
type ReplicateRequest struct {
	Term       uint64 `json:"term"`
	LeaderID   int    `json:"leader_id"`
	LeaderAddr string `json:"leader_addr"`
	// Seq is the leader's replication sequence for this batch; acks
	// carry it back so the leader knows the follower's high-water mark.
	Seq     uint64                   `json:"seq"`
	Entries []fleetrpc.RegistryEntry `json:"-"`
	// Shards/Dead/RingGen are the leader's membership view: the shard
	// address list (ids = indexes), the dead ids, and the leader's ring
	// generation.
	Shards  []string `json:"shards"`
	Dead    []int    `json:"dead,omitempty"`
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
// every acked handle, whichever follower wins the election. Term and
// AppliedSeq are the membership view's high-water mark: the term and
// sequence of the leader batch it came from.
type StateResponse struct {
	ID         int                      `json:"id"`
	Term       uint64                   `json:"term"`
	AppliedSeq uint64                   `json:"applied_seq"`
	Entries    []fleetrpc.RegistryEntry `json:"-"`
	Shards     []string                 `json:"shards,omitempty"`
	Dead       []int                    `json:"dead,omitempty"`
	RingGen    uint64                   `json:"ring_gen"`
}

// The replicate request and the state answer are each one frame: the
// rest of the value as a JSON header, then every entry's handle and
// Matrix frame, length-prefixed, so no matrix is ever JSON:
//
//	"GHA1" | u32 len | header JSON | { u32 len | handle | u32 len | Matrix frame }*
//
// Lengths are little-endian; the entries run to the exact end of the
// body. The header must be in the form encoding/json writes and each
// handle in the form serve.Handle.String writes, so a frame that
// decodes re-encodes to the same bytes.
var frameMagic = []byte("GHA1")

// errBadFrame is the class of a replicate or state frame the decoder
// refuses (a bad matrix inside one is a fleetrpc.ErrBadMatrix): a 400.
var errBadFrame = errors.New("fleetha: malformed frame")

func encodeFrame(head any, entries []fleetrpc.RegistryEntry) ([]byte, error) {
	hdr, err := json.Marshal(head)
	if err != nil {
		return nil, fmt.Errorf("fleetha: encode frame header: %w", err)
	}
	size := len(frameMagic) + 4 + len(hdr)
	for _, e := range entries {
		size += 8 + len(e.Handle.String()) + len(e.Matrix.Bytes())
	}
	b := make([]byte, 0, size)
	b = append(b, frameMagic...)
	b = appendChunk(b, hdr)
	for _, e := range entries {
		b = appendChunk(b, []byte(e.Handle.String()))
		b = appendChunk(b, e.Matrix.Bytes())
	}
	return b, nil
}

func appendChunk(b, chunk []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(chunk)))
	return append(b, chunk...)
}

// cutChunk splits one length-prefixed chunk off b.
func cutChunk(b []byte) (chunk, rest []byte, err error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("%w: %d bytes left, want a length", errBadFrame, len(b))
	}
	n := binary.LittleEndian.Uint32(b)
	if uint64(n) > uint64(len(b)-4) {
		return nil, nil, fmt.Errorf("%w: chunk of %d bytes, %d left", errBadFrame, n, len(b)-4)
	}
	return b[4 : 4+n], b[4+n:], nil
}

// decodeFrame decodes a frame's header into head and returns its
// entries. Each entry's matrix is copied out of body, so a registry
// that keeps it does not pin the whole batch.
func decodeFrame(body []byte, head any) ([]fleetrpc.RegistryEntry, error) {
	rest, ok := bytes.CutPrefix(body, frameMagic)
	if !ok {
		return nil, fmt.Errorf("%w: no magic", errBadFrame)
	}
	hdr, rest, err := cutChunk(rest)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(hdr, head); err != nil {
		return nil, fmt.Errorf("%w: header: %v", errBadFrame, err)
	}
	if canon, err := json.Marshal(head); err != nil || !bytes.Equal(canon, hdr) {
		return nil, fmt.Errorf("%w: header not in canonical form", errBadFrame)
	}
	var entries []fleetrpc.RegistryEntry
	for len(rest) > 0 {
		var hs, fr []byte
		if hs, rest, err = cutChunk(rest); err != nil {
			return nil, err
		}
		if fr, rest, err = cutChunk(rest); err != nil {
			return nil, err
		}
		h, err := serve.ParseHandle(string(hs))
		if err != nil || h.String() != string(hs) {
			return nil, fmt.Errorf("%w: entry %d: handle %q", errBadFrame, len(entries), hs)
		}
		m, err := fleetrpc.DecodeMatrix(bytes.Clone(fr))
		if err != nil {
			return nil, fmt.Errorf("entry %d: %w", len(entries), err)
		}
		entries = append(entries, fleetrpc.RegistryEntry{Handle: h, Matrix: m})
	}
	return entries, nil
}

// MarshalBinary is the /ha/v1/replicate body.
func (r ReplicateRequest) MarshalBinary() ([]byte, error) { return encodeFrame(r, r.Entries) }

// UnmarshalBinary decodes a /ha/v1/replicate body.
func (r *ReplicateRequest) UnmarshalBinary(b []byte) error {
	var err error
	*r = ReplicateRequest{}
	r.Entries, err = decodeFrame(b, r)
	return err
}

// MarshalBinary is the /ha/v1/state answer.
func (s StateResponse) MarshalBinary() ([]byte, error) { return encodeFrame(s, s.Entries) }

// UnmarshalBinary decodes a /ha/v1/state answer.
func (s *StateResponse) UnmarshalBinary(b []byte) error {
	var err error
	*s = StateResponse{}
	s.Entries, err = decodeFrame(b, s)
	return err
}
