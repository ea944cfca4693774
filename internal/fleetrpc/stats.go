package fleetrpc

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// metrics is the router's accounting: lock-free counters in the style
// of serve.Metrics, snapshotted into Stats on demand.
type metrics struct {
	routed       atomic.Uint64
	retries      atomic.Uint64 // backoff-gated re-attempts of a whole request
	failovers    atomic.Uint64 // same-attempt replica tries after a fast primary error
	hedged       atomic.Uint64 // budget-granted hedge launches
	hedgeWins    atomic.Uint64 // hedges where the replica answered first
	resubmits    atomic.Uint64 // expired-handle heals from the registry
	degraded     atomic.Uint64 // solves answered by the iterative fallback
	failed       atomic.Uint64 // requests that exhausted the whole ladder
	probes       atomic.Uint64
	probeFails   atomic.Uint64
	deaths       atomic.Uint64
	rejoins      atomic.Uint64
	drains       atomic.Uint64
	rebuilds     atomic.Uint64 // ring swaps
	rereplicated atomic.Uint64 // successful re-home submits after membership changes
}

// Stats is a point-in-time router snapshot.
type Stats struct {
	Routed    uint64 `json:"routed"`
	Retries   uint64 `json:"retries"`
	Failovers uint64 `json:"failovers"`
	Hedged    uint64 `json:"hedged"`
	HedgeWins uint64 `json:"hedge_wins"`
	// HedgeStaked/HedgeDenied are the hedge budget's grant and denial
	// counts; zero when Config.HedgeBudget is unset.
	HedgeStaked  uint64 `json:"hedge_staked,omitempty"`
	HedgeDenied  uint64 `json:"hedge_denied,omitempty"`
	Resubmits    uint64 `json:"resubmits"`
	Degraded     uint64 `json:"degraded"`
	Failed       uint64 `json:"failed"`
	Probes       uint64 `json:"probes"`
	ProbeFails   uint64 `json:"probe_fails"`
	Deaths       uint64 `json:"deaths"`
	Rejoins      uint64 `json:"rejoins"`
	Drains       uint64 `json:"drains"`
	Rebuilds     uint64 `json:"rebuilds"`
	Rereplicated uint64 `json:"rereplicated"`

	// RingGen is the placement epoch (rebuild count); RegistryLen the
	// registered systems. P50/P99/P999 are fleet-wide client-observed
	// solve latencies since startup.
	RingGen     uint64        `json:"ring_gen"`
	RegistryLen int           `json:"registry_len"`
	P50         time.Duration `json:"p50_ns"`
	P99         time.Duration `json:"p99_ns"`
	P999        time.Duration `json:"p999_ns"`

	Members []MemberStatus `json:"members"`
}

func (m *metrics) snapshot() Stats {
	return Stats{
		Routed:       m.routed.Load(),
		Retries:      m.retries.Load(),
		Failovers:    m.failovers.Load(),
		Hedged:       m.hedged.Load(),
		HedgeWins:    m.hedgeWins.Load(),
		Resubmits:    m.resubmits.Load(),
		Degraded:     m.degraded.Load(),
		Failed:       m.failed.Load(),
		Probes:       m.probes.Load(),
		ProbeFails:   m.probeFails.Load(),
		Deaths:       m.deaths.Load(),
		Rejoins:      m.rejoins.Load(),
		Drains:       m.drains.Load(),
		Rebuilds:     m.rebuilds.Load(),
		Rereplicated: m.rereplicated.Load(),
	}
}

// HedgeRate returns hedged/routed, or 0 before any traffic.
func (s Stats) HedgeRate() float64 {
	if s.Routed == 0 {
		return 0
	}
	return float64(s.Hedged) / float64(s.Routed)
}

// HealRate returns resubmits/routed: the fraction of solves that found
// their factors evicted and had to re-factor from the registry — the
// cache-thrash signal for a shard count that can't hold the working
// set.
func (s Stats) HealRate() float64 {
	if s.Routed == 0 {
		return 0
	}
	return float64(s.Resubmits) / float64(s.Routed)
}

// String renders the router summary plus one line per member.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "routed %d  retries %d  failovers %d  hedged %d (wins %d, budget-denied %d)  resubmits %d  degraded %d  failed %d\n",
		s.Routed, s.Retries, s.Failovers, s.Hedged, s.HedgeWins, s.HedgeDenied, s.Resubmits, s.Degraded, s.Failed)
	fmt.Fprintf(&b, "probes %d (%d failed)  deaths %d  rejoins %d  drains %d  ring rebuilds %d (gen %d)  re-replicated %d\n",
		s.Probes, s.ProbeFails, s.Deaths, s.Rejoins, s.Drains, s.Rebuilds, s.RingGen, s.Rereplicated)
	fmt.Fprintf(&b, "registry %d  p50 %v  p99 %v  p999 %v\n",
		s.RegistryLen, s.P50, s.P99, s.P999)
	for _, m := range s.Members {
		fmt.Fprintf(&b, "member %d %s [%s] failures %d in flight %d\n", m.ID, m.Addr, m.State, m.Failures, m.QueueDepth)
	}
	return b.String()
}
