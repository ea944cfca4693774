package fleetrpc

import (
	"sync"

	"gesp/internal/serve"
)

// RegistryEntry is one registered system: the matrix frame under its
// serve handle.
type RegistryEntry struct {
	Handle serve.Handle
	Matrix Matrix
}

// Registry is the coordinator's record of every submitted system, an
// append-only log indexed by handle. A handle is content-addressed
// (pattern hash, value hash, n), so one handle always names one matrix
// and an entry is never rewritten or removed: a log position therefore
// says exactly which entries a reader has seen, which is what the HA
// layer replicates by. The zero value is an empty registry; it is safe
// for concurrent use.
type Registry struct {
	mu sync.Mutex
	//gesp:guardedby:mu
	log []RegistryEntry
	//gesp:guardedby:mu
	index map[serve.Handle]int
}

// Put appends e unless its handle is already registered.
func (r *Registry) Put(e RegistryEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.index[e.Handle]; ok {
		return
	}
	if r.index == nil {
		r.index = make(map[serve.Handle]int)
	}
	r.index[e.Handle] = len(r.log)
	r.log = append(r.log, e)
}

// Get returns the matrix registered under h.
func (r *Registry) Get(h serve.Handle) (Matrix, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[h]
	if !ok {
		return Matrix{}, false
	}
	return r.log[i].Matrix, true
}

// Len is the number of registered systems: the log's end position.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.log)
}

// Since returns the entries from log position i (at most Len) on. The
// slice shares the log's storage without a copy: a later Put only
// writes past its end or moves the log elsewhere, so it stays valid
// unlocked; its capacity is clipped so an append to it cannot reach
// the log.
func (r *Registry) Since(i int) []RegistryEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.log[i:len(r.log):len(r.log)]
}
