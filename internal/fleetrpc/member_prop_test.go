package fleetrpc

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// memberEvent is one input to the membership state machine.
type memberEvent int

const (
	evProbeOK     memberEvent = iota // healthy probe: reviveOnProbe
	evProbeFail                      // failed probe: reportFailure
	evRequestOK                      // request-path success: reportSuccess
	evRequestFail                    // transport-failed request: reportFailure
	evDrain                          // administrative drain: markDead
	numMemberEvents
)

func (e memberEvent) String() string {
	return [...]string{"probe-ok", "probe-fail", "request-ok", "request-fail", "drain"}[e]
}

// apply feeds one event and returns the (died, rejoined) edge signals.
func apply(m *member, e memberEvent, suspectAfter, deadAfter int, now time.Time) (died, rejoined bool) {
	switch e {
	case evProbeOK:
		rejoined = m.reviveOnProbe(now, now)
	case evProbeFail, evRequestFail:
		died = m.reportFailure(suspectAfter, deadAfter, now)
	case evRequestOK:
		m.reportSuccess(now)
	case evDrain:
		m.markDead(now)
	}
	return died, rejoined
}

// TestMemberTransitionTable drives the state machine through every
// (state, failures-at-threshold-boundary, event) cell and checks the
// successor state against the specification:
//
//	alive:   probe-fail/request-fail count up; at SuspectAfter -> suspect
//	suspect: failures keep counting; at DeadAfter -> dead (died fires once)
//	         any success -> alive, failures zeroed
//	dead:    request-ok and request-fail are ignored — only probe-ok
//	         revives (rejoined fires once), and drain keeps it dead
func TestMemberTransitionTable(t *testing.T) {
	const suspectAfter, deadAfter = 2, 4
	now := time.Unix(0, 0)

	// reach puts a fresh member into the wanted state with a known
	// failure count.
	reach := func(state MemberState, failures int) *member {
		m := newMember(0, NewClient("x"), now)
		switch state {
		case StateAlive:
		case StateSuspect:
			for i := 0; i < suspectAfter; i++ {
				m.reportFailure(suspectAfter, deadAfter, now)
			}
		case StateDead:
			m.markDead(now)
		}
		// top up the failure counter without crossing the next threshold
		for m.failureCount() < failures {
			m.reportFailure(suspectAfter, deadAfter, now)
		}
		if got := m.currentState(); got != state {
			t.Fatalf("setup: wanted %v, got %v", state, got)
		}
		return m
	}

	type cell struct {
		from     MemberState
		failures int
		ev       memberEvent
		want     MemberState
		wantDied bool
		wantRejo bool
	}
	cells := []cell{
		// alive
		{StateAlive, 0, evProbeOK, StateAlive, false, false},
		{StateAlive, 0, evRequestOK, StateAlive, false, false},
		{StateAlive, 0, evProbeFail, StateAlive, false, false},     // 1 < suspectAfter
		{StateAlive, 1, evProbeFail, StateSuspect, false, false},   // hits suspectAfter
		{StateAlive, 1, evRequestFail, StateSuspect, false, false}, // request-path failures count too
		{StateAlive, 0, evDrain, StateDead, false, false},
		// suspect
		{StateSuspect, 2, evProbeOK, StateAlive, false, false},
		{StateSuspect, 2, evRequestOK, StateAlive, false, false},   // request success recovers a suspect
		{StateSuspect, 2, evProbeFail, StateSuspect, false, false}, // 3 < deadAfter
		{StateSuspect, 3, evProbeFail, StateDead, true, false},     // hits deadAfter, died edge
		{StateSuspect, 3, evRequestFail, StateDead, true, false},
		{StateSuspect, 2, evDrain, StateDead, false, false}, // drain fires no died edge (caller handles the ring)
		// dead — the satellite's core claim: no request-path signal may
		// resurrect a drained shard; only the prober revives.
		{StateDead, 0, evRequestOK, StateDead, false, false},
		{StateDead, 0, evRequestFail, StateDead, false, false},
		{StateDead, 0, evDrain, StateDead, false, false},
		{StateDead, 0, evProbeOK, StateAlive, false, true}, // the one way back, rejoined edge
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%v+%dfail/%v", c.from, c.failures, c.ev), func(t *testing.T) {
			m := reach(c.from, c.failures)
			died, rejoined := apply(m, c.ev, suspectAfter, deadAfter, now)
			if got := m.currentState(); got != c.want {
				t.Errorf("state: got %v, want %v", got, c.want)
			}
			if died != c.wantDied || rejoined != c.wantRejo {
				t.Errorf("edges: got died=%v rejoined=%v, want %v/%v", died, rejoined, c.wantDied, c.wantRejo)
			}
			// success events must zero the failure counter when the member
			// is not dead (the backoff-reset satellite's substrate)
			if (c.ev == evProbeOK || (c.ev == evRequestOK && c.from != StateDead)) && m.failureCount() != 0 {
				t.Errorf("failures not reset: %d", m.failureCount())
			}
		})
	}
}

// TestMemberRandomWalkInvariants drives long random event sequences
// through the machine and checks the global invariants no table can
// enumerate:
//
//  1. dead is only ever left via probe-ok, and every exit reports the
//     rejoined edge exactly once;
//  2. every entry into dead via failures reports the died edge exactly
//     once (drain reports none — the caller already knows);
//  3. a drained member ignores every request-path signal until a probe
//     succeeds: no resurrection by traffic;
//  4. the failure counter is zero right after any success and never
//     decreases otherwise except by reset.
func TestMemberRandomWalkInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	now := time.Unix(0, 0)
	for trial := 0; trial < 200; trial++ {
		suspectAfter := 1 + rng.Intn(3)
		deadAfter := suspectAfter + 1 + rng.Intn(3)
		m := newMember(0, NewClient("x"), now)
		prev := m.currentState()
		for step := 0; step < 400; step++ {
			ev := memberEvent(rng.Intn(int(numMemberEvents)))
			prevFailures := m.failureCount()
			died, rejoined := apply(m, ev, suspectAfter, deadAfter, now)
			cur := m.currentState()

			if prev == StateDead && cur != StateDead {
				if ev != evProbeOK {
					t.Fatalf("trial %d step %d: left dead via %v", trial, step, ev)
				}
				if !rejoined {
					t.Fatalf("trial %d step %d: dead->alive without rejoined edge", trial, step)
				}
			}
			if rejoined && !(prev == StateDead && cur == StateAlive) {
				t.Fatalf("trial %d step %d: spurious rejoined edge (%v->%v via %v)", trial, step, prev, cur, ev)
			}
			if prev != StateDead && cur == StateDead && ev != evDrain && !died {
				t.Fatalf("trial %d step %d: died into dead via %v without edge", trial, step, ev)
			}
			if died && !(prev == StateSuspect && cur == StateDead) {
				t.Fatalf("trial %d step %d: spurious died edge (%v->%v via %v)", trial, step, prev, cur, ev)
			}
			if prev == StateDead && (ev == evRequestOK || ev == evRequestFail) && cur != StateDead {
				t.Fatalf("trial %d step %d: request-path signal %v resurrected a dead member", trial, step, ev)
			}
			switch ev {
			case evProbeOK:
				if m.failureCount() != 0 {
					t.Fatalf("trial %d step %d: probe-ok left failures=%d", trial, step, m.failureCount())
				}
			case evRequestOK:
				if cur != StateDead && m.failureCount() != 0 {
					t.Fatalf("trial %d step %d: request-ok left failures=%d", trial, step, m.failureCount())
				}
			case evProbeFail, evRequestFail:
				if m.failureCount() != prevFailures+1 {
					t.Fatalf("trial %d step %d: failure did not count (%d -> %d)", trial, step, prevFailures, m.failureCount())
				}
			}
			prev = cur
		}
	}
}
