package fleetha

import (
	"context"
	"time"

	"gesp/internal/fleet"
	"gesp/internal/fleetrpc"
)

// The leader-side half of the SLO controller: every Window, gather
// one Signals sample from the fleet's published telemetry (windowed
// histogram delta, stats deltas, prober queue gauges — zero extra
// HTTP), step the pure controller, and apply whatever it decided.
// Decisions append to the node's structured trace, served at
// /ha/v1/trace.

// startControllerLocked arms the control loop over a freshly led
// fleet: the controller itself (once per node — its model of what it
// promoted and spawned outlives a step-down) and the baselines the
// first window's deltas are taken against.
//
//gesp:holds:n.mu
func (n *Node) startControllerLocked(fl *fleetrpc.Fleet, now time.Time) {
	if n.ctrl == nil && n.cfg.Controller != nil {
		cc := *n.cfg.Controller
		if n.cfg.Scaler == nil {
			// no Scaler: a Spawn decision could never be applied, so
			// never emit one — promotion/demotion remain available
			cc.SpawnQueueDepth, cc.MaxShards = 0, 0
		}
		n.ctrl = NewController(cc)
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
	liveShards := 0
	for _, m := range stats.Members {
		if m.State != fleetrpc.StateDead.String() {
			liveShards++
		}
	}
	sig := Signals{
		P999:        win.Quantile(0.999),
		Samples:     win.Total,
		HealRate:    healRate,
		HedgeDenied: stats.HedgeDenied - prevStats.HedgeDenied,
		QueueDepth:  fl.MaxQueueDepth(),
		HotPatterns: fl.HotPatterns(ctrl.cfg.HotK),
		Boosted:     fl.Boosted(),
		Shards:      liveShards,
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

// applyDecision executes one controller verb against the fleet and
// scaler.
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
	case ActSpawn:
		if n.cfg.Scaler == nil {
			// unreachable when the leader gated the controller's spawn
			// knobs on Scaler presence, but a replayed/injected decision
			// must still not corrupt the model
			n.cfg.Logf("fleetha node %d: spawn decision with no scaler; skipped", n.cfg.ID)
			return
		}
		sh, err := n.cfg.Scaler.Spawn()
		if err != nil {
			n.cfg.Logf("fleetha node %d: spawn failed: %v", n.cfg.ID, err)
			return
		}
		addr := sh.Addr()
		id, err := fl.AddMember(sh)
		if err != nil {
			n.cfg.Logf("fleetha node %d: add member %s failed: %v", n.cfg.ID, addr, err)
			return
		}
		// confirm only now: the controller's spawned count must track
		// shards that exist, not spawn attempts
		n.mu.Lock()
		n.spawnedShards = append(n.spawnedShards, spawnedShard{id: id, addr: addr})
		if n.ctrl != nil {
			n.ctrl.NoteSpawned()
		}
		n.mu.Unlock()
	case ActDrain:
		if n.cfg.Scaler == nil {
			return
		}
		n.mu.Lock()
		if len(n.spawnedShards) == 0 {
			n.mu.Unlock()
			return
		}
		sh := n.spawnedShards[len(n.spawnedShards)-1]
		n.spawnedShards = n.spawnedShards[:len(n.spawnedShards)-1]
		n.mu.Unlock()
		// drain by the member id AddMember assigned, not by address:
		// ids are append-only, while an OS-recycled port can make this
		// shard share an address with a long-dead member — an address
		// search would match the stale entry and leave the live shard
		// in the ring while the Scaler kills its process.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := fl.Drain(ctx, sh.id); err != nil {
			n.cfg.Logf("fleetha node %d: drain member %d failed: %v", n.cfg.ID, sh.id, err)
		}
		cancel()
		if err := n.cfg.Scaler.Drain(sh.addr); err != nil {
			n.cfg.Logf("fleetha node %d: scaler drain %s failed: %v", n.cfg.ID, sh.addr, err)
		}
	}
}
