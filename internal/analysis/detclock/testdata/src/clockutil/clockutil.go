// Package clockutil is the non-scoped helper package of the
// detclock fixtures: taint must flow through it into scoped callers.
package clockutil

import (
	"math/rand"
	"time"
)

// Stamp reads the host clock; legal here, but poison for any
// deterministic caller.
func Stamp() int64 { return time.Now().UnixNano() }

// Jitter draws from the globally-seeded generator.
func Jitter() int { return rand.Intn(10) }

// Seeded builds an explicitly-seeded generator: deterministic.
func Seeded(k int64) *rand.Rand { return rand.New(rand.NewSource(k)) }

// Pure is deterministic all the way down.
func Pure(x int) int { return x * 2 }
