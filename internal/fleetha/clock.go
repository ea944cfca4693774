// Package fleetha replicates the cross-process coordinator: N
// gesp-fleet nodes run a deterministic lease-based leader election
// over the same HTTP wire the shards speak, and the leader streams its
// matrix registry, membership view, and ring generation to followers,
// acking a submit only once a majority holds it. A SIGKILL'd leader fails
// over to the lowest-id survivor with zero lost handles and zero
// client-visible errors — the client follows 307 leader redirects and
// retries through the election with the fleetrpc backoff.
package fleetha

import (
	"sync"
	"time"
)

// Clock abstracts the node's time source: lease-expiry decisions go
// through it so election unit tests can drive the state machine with a
// manual clock instead of sleeping through real leases. Production
// nodes use WallClock.
type Clock interface {
	Now() time.Time
}

// WallClock is the real time source.
type WallClock struct{}

// Now returns the wall time.
//
//gesp:wallclock — the production HA node runs on real time by design
func (WallClock) Now() time.Time { return time.Now() }

// ManualClock is a test clock: time moves only when Advance is called.
type ManualClock struct {
	mu sync.Mutex
	//gesp:guardedby:mu
	t time.Time
}

// NewManualClock starts a manual clock at t.
func NewManualClock(t time.Time) *ManualClock {
	return &ManualClock{t: t}
}

// Now returns the clock's current position.
func (c *ManualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the clock forward by d.
func (c *ManualClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}
