package fleetha

import (
	"time"

	"gesp/internal/fleet"
	"gesp/internal/fleetrpc"
)

// The leader-side half of the SLO controller: every Window, gather
// one Signals sample from the fleet's published telemetry (windowed
// histogram delta, stats deltas — zero extra HTTP), step the pure
// controller, and apply whatever it decided. Decisions append to the
// node's structured trace, served at /ha/v1/trace.

// startControllerLocked arms the control loop over a freshly led
// fleet: the controller itself (once per node — its model of what it
// promoted outlives a step-down) and the baselines the first window's
// deltas are taken against.
//
//gesp:holds:n.mu
func (n *Node) startControllerLocked(fl *fleetrpc.Fleet, now time.Time) {
	if n.ctrl == nil && n.cfg.Controller != nil {
		n.ctrl = NewController(*n.cfg.Controller)
	}
	n.lastCtrl = now
	n.prevLatCounts, n.prevLatTotal = fl.LatSnapshot()
	n.prevStats = fl.Stats()
}

// controllerTick runs at most one controller window per call; the
// node's tick loop calls it every heartbeat and the window gate keeps
// the cadence.
func (n *Node) controllerTick(now time.Time) {
	n.mu.Lock()
	ctrl := n.ctrl
	fl := n.fleet
	if ctrl == nil || fl == nil || now.Sub(n.lastCtrl) < ctrl.cfg.Window {
		n.mu.Unlock()
		return
	}
	n.lastCtrl = now
	prevCounts, prevTotal := n.prevLatCounts, n.prevLatTotal
	prevStats := n.prevStats
	n.mu.Unlock()

	counts, total := fl.LatSnapshot()
	stats := fl.Stats()
	win := fleet.WindowSince(counts, total, prevCounts, prevTotal)
	routedDelta := stats.Routed - prevStats.Routed
	healDelta := stats.Resubmits - prevStats.Resubmits
	healRate := 0.0
	if routedDelta > 0 {
		healRate = float64(healDelta) / float64(routedDelta)
	}
	sig := Signals{
		P999:        win.Quantile(0.999),
		Samples:     win.Total,
		HealRate:    healRate,
		HedgeDenied: stats.HedgeDenied - prevStats.HedgeDenied,
		HotPatterns: fl.HotPatterns(ctrl.cfg.HotK),
		Boosted:     fl.Boosted(),
	}

	n.mu.Lock()
	n.prevLatCounts, n.prevLatTotal = counts, total
	n.prevStats = stats
	decisions := ctrl.Step(sig)
	n.mu.Unlock()

	for _, d := range decisions {
		n.applyDecision(d)
		n.mu.Lock()
		n.trace = append(n.trace, d)
		n.mu.Unlock()
		n.cfg.Logf("fleetha node %d: window %d %s: %s", n.cfg.ID, d.Window, d.Action, d.Reason)
	}
}

// applyDecision executes one controller verb against the fleet.
func (n *Node) applyDecision(d Decision) {
	n.mu.Lock()
	fl := n.fleet
	n.mu.Unlock()
	if fl == nil {
		return
	}
	switch d.Action {
	case ActPromote:
		fl.PromotePattern(d.Pattern, d.Boost)
	case ActDemote:
		fl.DemotePattern(d.Pattern)
	}
}
