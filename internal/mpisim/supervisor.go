package mpisim

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// The watchdog supervisor converts the two distributed failure modes —
// a dead rank and a wedged communicator — into typed errors instead of
// eternal blocks, without sacrificing the simulator's determinism.
//
// Wall-clock timeouts cannot work here: a rank blocked on a message
// that will never come does not advance its virtual clock, so "has the
// deadline passed" is unanswerable in virtual time, and answering it in
// real time would make failure detection depend on host scheduling.
// Instead the supervisor detects the *stable property* a lost rank or
// lost message eventually produces: every live rank blocked on an
// operation that nothing in flight can satisfy. That state is reached
// deterministically (the surviving ranks run to the same quiescent
// point every time), so the counters and clocks in the failure report
// are reproducible run to run. The check is event-driven — it runs only
// when a rank blocks, dies or finishes — so the fault-free fast path
// pays a single atomic load per operation.

// Typed failures surfaced by the watchdog.
var (
	// ErrRankDead reports that a rank was killed, stalled past the
	// watchdog deadline, or panicked, making the blocked operation
	// impossible to complete.
	ErrRankDead = errors.New("mpisim: rank dead")
	// ErrTimeout reports that the watchdog found the world wedged —
	// every live rank blocked with nothing deliverable (e.g. after a
	// dropped message) — without any rank having died.
	ErrTimeout = errors.New("mpisim: watchdog timeout")
)

// WaitInfo is one node of the wait graph at detection time: what a rank
// was blocked on when the watchdog declared failure.
type WaitInfo struct {
	Rank  int
	Op    string // "recv", "recvany" or "barrier"
	Src   int    // awaited source (recv only, else -1)
	Tag   int    // awaited tag (recv only, else -1)
	Clock float64
}

// RecvStamp identifies the last message a rank received before the
// failure, for post-mortem reconstruction of how far each rank got.
type RecvStamp struct {
	Src, Tag int
	Seq      int64
}

// FailureReport is the watchdog's structured account of a failed world.
// Err, Kind, Rank and the virtual times are deterministic for a fixed
// program and fault plan; Waits and LastRecv are diagnostics whose exact
// contents can vary with host scheduling (they describe the moment of
// detection, which goroutine interleaving reaches in different orders).
type FailureReport struct {
	// Err is ErrRankDead or ErrTimeout.
	Err error
	// Kind classifies the root cause: "kill", "stall", "panic" (a dead
	// rank), "wedge" (no dead rank — typically a dropped message), or
	// "wall-backstop" (the real-time safety net fired).
	Kind string
	// Rank is the dead rank, or -1 when no single rank is implicated.
	Rank int
	// Phase is filled in by higher layers (e.g. dist: "factorize" or
	// "solve"); mpisim leaves it empty.
	Phase string
	// FaultTime is the virtual time of the originating fault — the dead
	// rank's clock at death, or the latest blocked clock for a pure
	// wedge. DetectedAt is the virtual time the failure is charged at:
	// the last survivor's blocked clock plus the watchdog deadline.
	FaultTime  float64
	DetectedAt float64
	// PanicValue carries the recovered value when Kind is "panic".
	PanicValue any
	// LastRecv[i] is rank i's last delivered message (Src -1 if none).
	LastRecv []RecvStamp
	// Waits is the wait graph: what each still-blocked rank waited on.
	Waits []WaitInfo
}

type rankState int8

const (
	stRunning rankState = iota
	stDone
	stDead
)

type waitKind int8

const (
	waitNone waitKind = iota // not blocked
	waitRecv
	waitRecvAny
	waitBarrier
)

func (k waitKind) String() string { return [...]string{"", "recv", "recvany", "barrier"}[k] }

// waiter describes what a blocked rank is waiting for, precisely enough
// for the wedge check to decide whether anything queued can satisfy it.
type waiter struct {
	kind     waitKind
	src, tag int
	gen      int // barrier generation awaited
	clock    float64
}

// supervisor tracks per-rank liveness and blocking for one Run.
type supervisor struct {
	w  *World
	mu sync.Mutex

	//gesp:guardedby:mu
	state []rankState
	//gesp:guardedby:mu
	blocked []waiter // blocked[id].kind is waitNone while rank id runs
	//gesp:guardedby:mu
	active int // ranks still running (not done, not dead)
	//gesp:guardedby:mu
	nBlocked int

	// First death wins: it becomes the failure's root cause.
	deadRank  int
	deadKind  string
	deadClock float64
	deadPanic any

	failure atomic.Pointer[FailureReport]
}

func newSupervisor(w *World) *supervisor {
	s := &supervisor{w: w, deadRank: -1}
	s.state = make([]rankState, w.P)
	s.blocked = make([]waiter, w.P)
	s.active = w.P
	return s
}

// block registers rank id as blocked on wt and runs the wedge check.
// It returns the world's failure error if one is (or just became)
// declared; the caller must then bail out instead of waiting.
func (s *supervisor) block(id int, wt waiter) error {
	if f := s.failure.Load(); f != nil {
		return f.Err
	}
	s.mu.Lock()
	if s.blocked[id].kind == waitNone {
		s.nBlocked++
	}
	s.blocked[id] = wt
	s.checkWedge()
	s.mu.Unlock()
	if f := s.failure.Load(); f != nil {
		return f.Err
	}
	return nil
}

func (s *supervisor) unblock(id int) {
	s.mu.Lock()
	s.clearBlocked(id)
	s.mu.Unlock()
}

// clearBlocked drops rank id's block record. Caller holds s.mu.
//
//gesp:holds:s.mu
func (s *supervisor) clearBlocked(id int) {
	if s.blocked[id].kind != waitNone {
		s.blocked[id] = waiter{}
		s.nBlocked--
	}
}

// rankDead marks a rank dead (kill, over-deadline stall, or panic). The
// world is not failed immediately: the survivors keep running to their
// deterministic quiescent state, where the wedge check converts the
// stall into a failure with reproducible clocks and counters.
func (s *supervisor) rankDead(id int, kind string, clock float64, panicValue any) {
	s.mu.Lock()
	if s.state[id] == stRunning {
		s.state[id] = stDead
		s.active--
		s.clearBlocked(id)
		if s.deadRank < 0 {
			s.deadRank, s.deadKind, s.deadClock, s.deadPanic = id, kind, clock, panicValue
		}
		s.checkWedge()
	}
	s.mu.Unlock()
}

// rankDone marks a rank's body as completed normally.
func (s *supervisor) rankDone(id int) {
	s.mu.Lock()
	if s.state[id] == stRunning {
		s.state[id] = stDone
		s.active--
		s.checkWedge()
	}
	s.mu.Unlock()
}

// checkWedge declares failure iff every live rank is blocked on an
// operation nothing queued or pending can satisfy. Caller holds s.mu.
//
//gesp:holds:s.mu
func (s *supervisor) checkWedge() {
	if s.failure.Load() != nil || s.active == 0 || s.nBlocked != s.active {
		return
	}
	w := s.w
	maxClock := 0.0
	for id, wt := range s.blocked {
		switch wt.kind {
		case waitNone:
			continue
		case waitRecv:
			if w.mail[id].queued(wt.src, wt.tag) {
				return // deliverable: the rank just hasn't woken yet
			}
		case waitRecvAny:
			if w.mail[id].queued(-1, 0) {
				return
			}
		case waitBarrier:
			w.barrierMu.Lock()
			released := w.barrierGen != wt.gen
			w.barrierMu.Unlock()
			if released {
				return
			}
		}
		if wt.clock > maxClock {
			maxClock = wt.clock
		}
	}
	f := &FailureReport{Err: ErrTimeout, Kind: "wedge", Rank: -1, FaultTime: maxClock}
	if s.deadRank >= 0 {
		f.Err = ErrRankDead
		f.Kind, f.Rank = s.deadKind, s.deadRank
		f.FaultTime = s.deadClock
		f.PanicValue = s.deadPanic
	}
	f.DetectedAt = maxClock + w.plan.watchdog()
	f.LastRecv = make([]RecvStamp, w.P)
	for i, r := range w.ranks {
		key := r.lastRecvKey.Load()
		if key < 0 {
			f.LastRecv[i] = RecvStamp{Src: -1, Tag: -1}
			continue
		}
		f.LastRecv[i] = RecvStamp{Src: int(key >> 20), Tag: int(key & (1<<20 - 1)), Seq: r.lastRecvSeq.Load()}
	}
	for id, wt := range s.blocked {
		if wt.kind == waitNone {
			continue
		}
		wi := WaitInfo{Rank: id, Op: wt.kind.String(), Src: -1, Tag: -1, Clock: wt.clock}
		if wt.kind == waitRecv {
			wi.Src, wi.Tag = wt.src, wt.tag
		}
		f.Waits = append(f.Waits, wi)
	}
	s.failWith(f)
}

// failWith publishes the failure (first writer wins) and wakes every
// blocked rank so it can observe it. Caller holds s.mu.
func (s *supervisor) failWith(f *FailureReport) {
	if !s.failure.CompareAndSwap(nil, f) {
		return
	}
	s.w.wakeAll()
}

// Failure returns the watchdog's report for the last Run, or nil if the
// world completed cleanly. Call after Run returns.
func (w *World) Failure() *FailureReport {
	return w.sup.failure.Load()
}

// startWallBackstop arms the real-time safety net: if the world is
// still running after d of wall time, it is force-failed so a test
// suite cannot hang even if the deterministic watchdog itself is broken.
// This is the one deliberate wall-clock dependency in the simulator —
// it only fires on bugs, and its report is marked nondeterministic.
//
//gesp:wallclock
func (w *World) startWallBackstop(d time.Duration) func() {
	t := time.AfterFunc(d, func() {
		w.sup.mu.Lock()
		w.sup.failWith(&FailureReport{Err: ErrTimeout, Kind: "wall-backstop", Rank: -1})
		w.sup.mu.Unlock()
	})
	return func() { t.Stop() }
}

// wakeAll broadcasts every condition variable a rank can block on.
// Each broadcast is made under the corresponding mutex so a rank that
// checked the failure flag and is about to wait cannot miss the wakeup.
func (w *World) wakeAll() {
	for _, mb := range w.mail {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	w.barrierMu.Lock()
	w.barrierCond.Broadcast()
	w.barrierMu.Unlock()
}
