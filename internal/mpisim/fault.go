package mpisim

import "time"

// This file is the chaos-injection layer: a deterministic fault plan the
// runtime consults on every send and at every runtime-call boundary. The
// paper's target machine (a Cray T3E) lost nodes routinely; the plan
// lets the test suite reproduce that world exactly — same seed, same
// plan, same program ⇒ the same messages are dropped, duplicated and
// delayed, the same ranks die at the same virtual instants, and the
// simulated times and counters come out bit-identical.

// DefaultWatchdogDeadline is the virtual detection latency the watchdog
// charges when it converts a dead rank or a wedged world into an error
// (1 ms of simulated time, ~50 T3E message latencies).
const DefaultWatchdogDeadline = 1e-3

// RankFault schedules a one-shot kill or stall of a single rank.
type RankFault struct {
	// Rank is the victim.
	Rank int
	// At is the virtual time threshold: the fault fires at the victim's
	// first runtime call whose clock is at or past At.
	At float64
	// Stall is zero for a kill. A stall shorter than the watchdog
	// deadline is a transient hiccup (the victim's clock jumps by Stall
	// and it keeps running); a longer one is indistinguishable from
	// death to any watchdog and is treated as a dead rank with failure
	// kind "stall".
	Stall float64
}

// FaultPlan is a deterministic chaos schedule for one world — or one
// checkpoint/restart lineage of worlds. Message-level decisions (drop,
// duplicate, jitter) are pure functions of (Seed, src, dst, tag, seq),
// so two runs of the same program under identical plans behave
// identically. One-shot state (fired rank faults, the drop budget) is
// mutable: share a single plan across restart attempts so a fault is
// not re-injected into the recovered run, and build a fresh plan (see
// faultsim.Chaos) for each independent run. Worlds that share a plan
// must run one after another, as a restart lineage does.
type FaultPlan struct {
	// Seed drives every probabilistic decision.
	Seed int64
	// DelayJitter is the maximum extra virtual latency added per
	// message, drawn uniformly (and deterministically) in [0, DelayJitter).
	DelayJitter float64
	// DupProb is the probability a point-to-point send is delivered
	// twice. Duplication is harmless by construction: delivery is
	// idempotent (sequence-numbered dedup by (src, tag, seq)).
	DupProb float64
	// DropProb is the probability a point-to-point send is lost in the
	// network, bounded by MaxDrops.
	DropProb float64
	// MaxDrops is the total drop budget across the plan's lifetime
	// (including restarts); with DropProb > 0 a non-positive budget
	// means 1. A bounded budget guarantees a checkpoint/restart driver
	// eventually outruns the chaos.
	MaxDrops int
	// RankFaults lists one-shot kills and stalls.
	RankFaults []RankFault
	// WatchdogDeadline overrides DefaultWatchdogDeadline when positive.
	WatchdogDeadline float64
	// WallBackstop, when positive, arms a real-time safety net that
	// force-fails the world if Run has not finished within the duration —
	// a belt-and-suspenders guard for test suites, never a substitute
	// for the virtual-clock watchdog (its firing is inherently
	// nondeterministic and excluded from every determinism guarantee).
	WallBackstop time.Duration

	fired []bool
	drops int
}

// watchdog returns the effective detection deadline in virtual seconds.
func (p *FaultPlan) watchdog() float64 {
	if p != nil && p.WatchdogDeadline > 0 {
		return p.WatchdogDeadline
	}
	return DefaultWatchdogDeadline
}

// nextRankFault fires (at most) the first unfired fault scheduled for
// rank at or before clock, marking it consumed.
func (p *FaultPlan) nextRankFault(rank int, clock float64) *RankFault {
	if len(p.RankFaults) == 0 {
		return nil
	}
	if p.fired == nil {
		p.fired = make([]bool, len(p.RankFaults))
	}
	for i := range p.RankFaults {
		rf := &p.RankFaults[i]
		if !p.fired[i] && rf.Rank == rank && clock >= rf.At {
			p.fired[i] = true
			out := *rf
			return &out
		}
	}
	return nil
}

// dropMessage decides whether a send is lost, consuming drop budget.
func (p *FaultPlan) dropMessage(src, dst, tag int, seq int64) bool {
	if p.DropProb <= 0 || chance(p.Seed, saltDrop, src, dst, tag, seq) >= p.DropProb {
		return false
	}
	budget := p.MaxDrops
	if budget <= 0 {
		budget = 1
	}
	if p.drops >= budget {
		return false
	}
	p.drops++
	return true
}

// dupMessage decides whether a send is delivered twice.
func (p *FaultPlan) dupMessage(src, dst, tag int, seq int64) bool {
	return p.DupProb > 0 && chance(p.Seed, saltDup, src, dst, tag, seq) < p.DupProb
}

// delayFor returns the deterministic jitter added to a message's
// transit time.
func (p *FaultPlan) delayFor(src, dst, tag int, seq int64) float64 {
	if p.DelayJitter <= 0 {
		return 0
	}
	return chance(p.Seed, saltDelay, src, dst, tag, seq) * p.DelayJitter
}

const (
	saltDrop  = 0xD509_0001
	saltDup   = 0xD509_0002
	saltDelay = 0xD509_0003

	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// chance hashes the decision coordinates into [0, 1) with FNV-1a. The
// sequence number makes every message's fate independent; the salt
// decorrelates the drop, duplicate and delay decisions for one message.
func chance(seed int64, salt uint64, src, dst, tag int, seq int64) float64 {
	h := uint64(fnvOffset64)
	h = fnvMix64(h, uint64(seed))
	h = fnvMix64(h, salt)
	h = fnvMix64(h, uint64(src))
	h = fnvMix64(h, uint64(dst))
	h = fnvMix64(h, uint64(tag))
	h = fnvMix64(h, uint64(seq))
	return float64(h>>11) / (1 << 53)
}

func fnvMix64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// rankUnwind unwinds a rank's coroutine: a rank the fault plan just
// killed, a rank that met a world failure, or a rank whose coroutine Run
// is stopping. World.Run recovers it.
type rankUnwind struct{}
