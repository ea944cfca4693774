package fleetha

import (
	"time"

	"gesp/internal/fleet"
	"gesp/internal/fleetrpc"
)

// The leader-side half of the SLO controller: every Window, gather
// one Signals sample from the fleet's published telemetry (the
// windowed latency histogram delta and the hot patterns — zero extra
// HTTP), step the pure controller, and apply whatever it decided.
// Decisions append to the node's structured trace, served at
// /ha/v1/trace.

// startControllerLocked arms the control loop over a freshly led
// fleet: a controller whose boost model is empty, as the new fleet
// boosts nothing, but whose window count carries on from the node's
// last term so the trace's window numbers keep increasing, and the
// baseline the first window's delta is taken against.
//
//gesp:holds:n.mu
func (n *Node) startControllerLocked(fl *fleetrpc.Fleet, now time.Time) {
	if n.cfg.Controller != nil {
		c := NewController(*n.cfg.Controller)
		if n.ctrl != nil {
			c.window = n.ctrl.window
		}
		n.ctrl = c
	}
	n.lastCtrl = now
	n.prevLatCounts, n.prevLatTotal = fl.LatSnapshot()
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
	n.mu.Unlock()

	counts, total := fl.LatSnapshot()
	win := fleet.WindowSince(counts, total, prevCounts, prevTotal)
	sig := Signals{
		P999:        win.Quantile(0.999),
		Samples:     win.Total,
		HotPatterns: fl.HotPatterns(ctrl.cfg.HotK),
	}

	n.mu.Lock()
	n.prevLatCounts, n.prevLatTotal = counts, total
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
