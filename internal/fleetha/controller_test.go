package fleetha

import (
	"reflect"
	"testing"
	"time"
)

func ctrlConfig() ControllerConfig {
	return ControllerConfig{
		SLO:              50 * time.Millisecond,
		CooldownWindows:  3,
		MaxBoost:         2,
		HotK:             2,
		MinWindowSamples: 10,
	}
}

func breachSig(p999 time.Duration) Signals {
	return Signals{P999: p999, Samples: 100, HotPatterns: []uint64{0xAA, 0xBB}}
}

// TestControllerConvergence walks the acceptance scenario: a
// straggler breaches p999 → promote within the cooldown budget →
// breach clears → demote. The whole trajectory must hold the no-flap
// bound: at most one direction change per cooldown window.
func TestControllerConvergence(t *testing.T) {
	cfg := ctrlConfig()
	c := NewController(cfg)
	var all []Decision

	// two breach windows → exactly one promotion
	for i := 0; i < breachAfter; i++ {
		all = append(all, c.Step(breachSig(80*time.Millisecond))...)
	}
	if len(all) != 1 || all[0].Action != ActPromote || all[0].Pattern != 0xAA {
		t.Fatalf("after breach streak: decisions %+v, want one promote of hottest", all)
	}
	if all[0].Boost != 1 {
		t.Fatalf("first promote boost = %d, want 1", all[0].Boost)
	}

	// continued breach inside the cooldown: silence, by design
	for i := 0; i < cfg.CooldownWindows; i++ {
		if ds := c.Step(breachSig(80 * time.Millisecond)); len(ds) != 0 {
			t.Fatalf("decision inside cooldown: %+v", ds)
		}
	}

	// the breach streak survived the cooldown, so the next window out
	// of it escalates the same pattern one step further
	second := c.Step(breachSig(80 * time.Millisecond))
	if len(second) != 1 || second[0].Action != ActPromote || second[0].Pattern != 0xAA || second[0].Boost != 2 {
		t.Fatalf("second escalation: %+v, want promote 0xAA to boost 2", second)
	}
	all = append(all, second...)

	// hysteresis-band windows drain the cooldown without feeding either
	// streak, then the breach clears: after clearAfter clear windows,
	// one demote of the promoted pattern
	band := breachSig(35 * time.Millisecond)
	for i := 0; i < cfg.CooldownWindows; i++ {
		if ds := c.Step(band); len(ds) != 0 {
			t.Fatalf("decision in band during cooldown: %+v", ds)
		}
	}
	clear := breachSig(10 * time.Millisecond) // below clearFraction*SLO
	var downs []Decision
	for i := 0; i < 20 && len(downs) < 1; i++ {
		downs = append(downs, c.Step(clear)...)
	}
	if len(downs) != 1 || downs[0].Action != ActDemote || downs[0].Pattern != 0xAA {
		t.Fatalf("after clear streak: %+v, want demote of 0xAA", downs)
	}
	all = append(all, downs...)

	assertNoFlap(t, all, cfg.CooldownWindows)
}

// assertNoFlap checks ≤1 direction change per cooldown window: any
// two consecutive decisions in opposite directions must be at least
// CooldownWindows windows apart.
func assertNoFlap(t *testing.T, ds []Decision, cooldown int) {
	t.Helper()
	dir := func(a Action) int {
		switch a {
		case ActPromote:
			return +1
		case ActDemote:
			return -1
		}
		return 0
	}
	for i := 1; i < len(ds); i++ {
		if dir(ds[i].Action) != dir(ds[i-1].Action) {
			if gap := ds[i].Window - ds[i-1].Window; gap <= cooldown {
				t.Fatalf("flap: %s@w%d then %s@w%d (gap %d <= cooldown %d)",
					ds[i-1].Action, ds[i-1].Window, ds[i].Action, ds[i].Window, gap, cooldown)
			}
		}
	}
}

// TestControllerHoldsAtMaxBoost: a sustained breach promotes each hot
// pattern up to MaxBoost — hottest first — and then the ladder holds:
// with every candidate at max boost there is nothing left to escalate
// to, so further breach windows decide nothing. When the breach
// clears, the promotions unwind newest first.
func TestControllerHoldsAtMaxBoost(t *testing.T) {
	cfg := ctrlConfig()
	c := NewController(cfg)
	sig := breachSig(80 * time.Millisecond)
	var ups []Decision
	for i := 0; i < 60; i++ {
		ups = append(ups, c.Step(sig)...)
	}
	if n := countAction(ups, ActPromote); n != 2*cfg.MaxBoost || len(ups) != n {
		t.Fatalf("sustained breach decided %+v, want exactly %d promotes", ups, 2*cfg.MaxBoost)
	}
	for i, want := range []uint64{0xAA, 0xAA, 0xBB, 0xBB} {
		if ups[i].Pattern != want || ups[i].Boost != i%2+1 {
			t.Fatalf("promote %d = %+v, want pattern %#x to boost %d", i, ups[i], want, i%2+1)
		}
	}
	if last := ups[len(ups)-1].Window; last > 60-cfg.CooldownWindows-breachAfter {
		t.Fatalf("last promote at window %d: the test never saw the ladder hold", last)
	}

	clear := breachSig(10 * time.Millisecond)
	var downs []Decision
	for i := 0; i < 60; i++ {
		downs = append(downs, c.Step(clear)...)
	}
	if len(downs) != 2 || downs[0].Action != ActDemote || downs[0].Pattern != 0xBB ||
		downs[1].Action != ActDemote || downs[1].Pattern != 0xAA {
		t.Fatalf("after clear: %+v, want demote 0xBB then 0xAA", downs)
	}
	assertNoFlap(t, append(ups, downs...), cfg.CooldownWindows)
}

func countAction(ds []Decision, a Action) int {
	n := 0
	for _, d := range ds {
		if d.Action == a {
			n++
		}
	}
	return n
}

// TestControllerHysteresisBand: p999 between clearFraction·SLO and
// SLO must neither promote nor demote, and must break streaks — the
// no-flap property's middle ground.
func TestControllerHysteresisBand(t *testing.T) {
	cfg := ctrlConfig()
	c := NewController(cfg)
	band := breachSig(35 * time.Millisecond) // 0.5*50ms < 35ms < 50ms
	for i := 0; i < 30; i++ {
		if ds := c.Step(band); len(ds) != 0 {
			t.Fatalf("decision in hysteresis band: %+v", ds)
		}
	}
	// one breach window, then band: streak must have been broken
	c.Step(breachSig(80 * time.Millisecond))
	c.Step(band)
	if ds := c.Step(breachSig(80 * time.Millisecond)); len(ds) != 0 {
		t.Fatalf("band did not break the breach streak: %+v", ds)
	}
}

// TestControllerIgnoresThinWindows: a breach-looking window with too
// few samples is noise, not signal.
func TestControllerIgnoresThinWindows(t *testing.T) {
	cfg := ctrlConfig()
	c := NewController(cfg)
	thin := breachSig(500 * time.Millisecond)
	thin.Samples = 3
	for i := 0; i < 30; i++ {
		if ds := c.Step(thin); len(ds) != 0 {
			t.Fatalf("decision on %d samples: %+v", thin.Samples, ds)
		}
	}
}

// TestControllerReplay: Step is pure, so replaying a recorded signal
// trace reproduces the decision log exactly.
func TestControllerReplay(t *testing.T) {
	cfg := ctrlConfig()
	var trace []Signals
	for i := 0; i < 12; i++ {
		trace = append(trace, breachSig(80*time.Millisecond))
	}
	for i := 0; i < 12; i++ {
		trace = append(trace, breachSig(10*time.Millisecond))
	}
	live := NewController(cfg)
	var liveDs []Decision
	for _, s := range trace {
		liveDs = append(liveDs, live.Step(s)...)
	}
	if len(liveDs) == 0 {
		t.Fatal("trace produced no decisions; test is vacuous")
	}
	replayed := Replay(cfg, trace)
	if !reflect.DeepEqual(liveDs, replayed) {
		t.Fatalf("replay diverged:\nlive:   %+v\nreplay: %+v", liveDs, replayed)
	}
}
