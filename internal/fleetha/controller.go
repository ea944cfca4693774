package fleetha

import (
	"fmt"
	"time"
)

// The SLO controller closes the loop the ROADMAP left open: the fleet
// already publishes a p999 latency histogram and its hot patterns;
// this turns them into replica promotions and demotions. It is a pure
// state machine — Step consumes one window of signals and returns the
// decisions for that window — so a recorded signal trace replays to
// the identical decision sequence (Replay), and the no-flap guarantee
// is a property of the code, not of timing: hysteresis (breach at SLO,
// clear at clearFraction·SLO) plus streak thresholds plus a cooldown
// counted in windows mean at most one direction change per cooldown
// window.

// The hysteresis band and the streaks are fixed: between
// clearFraction·SLO and SLO the controller holds its position, and it
// acts only on breachAfter (clearAfter) consecutive breaching
// (clearing) windows — a single bad window is noise; a streak is a
// trend.
const (
	clearFraction = 0.5
	breachAfter   = 2
	clearAfter    = 2
)

// ControllerConfig parameterizes the SLO control loop.
type ControllerConfig struct {
	// SLO is the p999 latency target; a window whose windowed p999
	// exceeds it counts toward a breach.
	SLO time.Duration `json:"slo_ns"`
	// Window is how often the leader samples signals and steps the
	// controller (wall period of one window; the controller itself only
	// counts windows). 0 takes 250ms.
	Window time.Duration `json:"window_ns,omitempty"`
	// CooldownWindows is the post-action freeze: after any promote or
	// demote the controller holds for this many
	// windows so the action's effect can reach the histogram before
	// the next decision. 0 takes 4.
	CooldownWindows int `json:"cooldown_windows,omitempty"`
	// MaxBoost caps the per-pattern extra replicas a breach can add
	// (0 takes 2; the fleet additionally caps total width at its
	// replication ceiling).
	MaxBoost int `json:"max_boost,omitempty"`
	// HotK is how many top patterns are promotion candidates (0 takes 2).
	HotK int `json:"hot_k,omitempty"`
	// MinWindowSamples gates decisions on statistical weight: windows
	// with fewer samples neither breach nor clear (0 takes 20). An
	// idle fleet must not demote its way out of a provisioned state on
	// no evidence.
	MinWindowSamples uint64 `json:"min_window_samples,omitempty"`
}

func (c ControllerConfig) fill() ControllerConfig {
	if c.Window <= 0 {
		c.Window = 250 * time.Millisecond
	}
	if c.CooldownWindows <= 0 {
		c.CooldownWindows = 4
	}
	if c.MaxBoost <= 0 {
		c.MaxBoost = 2
	}
	if c.HotK <= 0 {
		c.HotK = 2
	}
	if c.MinWindowSamples == 0 {
		c.MinWindowSamples = 20
	}
	return c
}

// Signals is one window's observation of the fleet — windowed deltas,
// not cumulative counters, so each Step judges only what happened
// since the last one.
type Signals struct {
	// P999 is the windowed 99.9th percentile solve latency; Samples the
	// solve count in the window.
	P999    time.Duration `json:"p999_ns"`
	Samples uint64        `json:"samples"`
	// HotPatterns are the top routed patterns, descending.
	HotPatterns []uint64 `json:"hot_patterns,omitempty"`
}

// Action is one controller verb.
type Action string

const (
	ActPromote Action = "promote" // widen a hot pattern's placement by one replica
	ActDemote  Action = "demote"  // restore a pattern to configured replication
)

// Decision is one structured trace record: everything needed to audit
// or replay the controller's behavior.
type Decision struct {
	Window  int           `json:"window"`
	Action  Action        `json:"action"`
	Pattern uint64        `json:"pattern,omitempty"` // promote/demote target
	Boost   int           `json:"boost,omitempty"`   // promote: resulting extra replicas
	P999    time.Duration `json:"p999_ns"`
	Reason  string        `json:"reason"`
}

// Controller is the SLO state machine. Not safe for concurrent use —
// the leader's control loop is its only caller.
type Controller struct {
	cfg ControllerConfig

	window       int
	breachStreak int
	clearStreak  int
	cooldown     int
	// boosts mirrors the promotions this controller has made
	// (pattern -> extra replicas) so demotion unwinds exactly what
	// promotion wound, newest first.
	boosts map[uint64]int
	// promoteOrder remembers promotion order for LIFO demotion.
	promoteOrder []uint64
}

// NewController builds a controller; cfg.SLO must be positive.
func NewController(cfg ControllerConfig) *Controller {
	return &Controller{cfg: cfg.fill(), boosts: make(map[uint64]int)}
}

// Step advances one window and returns the decisions (zero or one).
// Pure over its inputs and prior Steps: no clocks, no randomness.
func (c *Controller) Step(sig Signals) []Decision {
	c.window++
	significant := sig.Samples >= c.cfg.MinWindowSamples
	breached := significant && sig.P999 > c.cfg.SLO
	cleared := significant && float64(sig.P999) <= clearFraction*float64(c.cfg.SLO)
	switch {
	case breached:
		c.breachStreak++
		c.clearStreak = 0
	case cleared:
		c.clearStreak++
		c.breachStreak = 0
	default:
		// hysteresis band or too few samples: hold position, decay both
		// streaks so stale momentum can't trigger an action later
		c.breachStreak = 0
		c.clearStreak = 0
	}
	if c.cooldown > 0 {
		c.cooldown--
		return nil
	}
	if c.breachStreak >= breachAfter {
		d := c.escalate(sig)
		c.breachStreak = 0
		if d != nil {
			c.cooldown = c.cfg.CooldownWindows
			return []Decision{*d}
		}
		return nil
	}
	if c.clearStreak >= clearAfter {
		d := c.relax(sig)
		c.clearStreak = 0
		if d != nil {
			c.cooldown = c.cfg.CooldownWindows
			return []Decision{*d}
		}
		return nil
	}
	return nil
}

// escalate widens the hottest under-boosted pattern. With every
// candidate at MaxBoost it has nothing left to do: the ladder holds
// until the breach clears, since the fleet's membership is fixed at
// start.
func (c *Controller) escalate(sig Signals) *Decision {
	k := c.cfg.HotK
	if k > len(sig.HotPatterns) {
		k = len(sig.HotPatterns)
	}
	for i := 0; i < k; i++ {
		p := sig.HotPatterns[i]
		if c.boosts[p] >= c.cfg.MaxBoost {
			continue
		}
		if c.boosts[p] == 0 {
			c.promoteOrder = append(c.promoteOrder, p)
		}
		c.boosts[p]++
		return &Decision{
			Window:  c.window,
			Action:  ActPromote,
			Pattern: p,
			Boost:   c.boosts[p],
			P999:    sig.P999,
			Reason:  fmt.Sprintf("p999 %v > SLO %v for %d windows; widening hottest pattern to +%d", sig.P999, c.cfg.SLO, breachAfter, c.boosts[p]),
		}
	}
	return nil
}

// relax unwinds the newest remedy: it demotes promotions LIFO.
func (c *Controller) relax(sig Signals) *Decision {
	for i := len(c.promoteOrder) - 1; i >= 0; i-- {
		p := c.promoteOrder[i]
		if c.boosts[p] == 0 {
			continue
		}
		delete(c.boosts, p)
		c.promoteOrder = c.promoteOrder[:i]
		return &Decision{
			Window:  c.window,
			Action:  ActDemote,
			Pattern: p,
			P999:    sig.P999,
			Reason:  fmt.Sprintf("p999 %v <= %.0f%% of SLO for %d windows; restoring pattern to configured replication", sig.P999, 100*clearFraction, clearAfter),
		}
	}
	return nil
}

// Window reports how many windows have been stepped.
func (c *Controller) Window() int { return c.window }

// Replay runs a fresh controller over a recorded signal trace and
// returns the full decision sequence — byte-for-byte what the live
// controller decided, because Step is pure. This is the audit story:
// persist the Signals, reproduce the Decisions.
func Replay(cfg ControllerConfig, trace []Signals) []Decision {
	c := NewController(cfg)
	var out []Decision
	for _, sig := range trace {
		out = append(out, c.Step(sig)...)
	}
	return out
}
