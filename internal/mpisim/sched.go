package mpisim

import (
	"errors"
	"iter"
	"time"
)

// The scheduler runs the P rank bodies as coroutines, one at a time, in
// virtual-time order: a conservative discrete-event simulation. A rank
// runs until it has to wait — a Recv with nothing queued, a Barrier not
// yet complete, a RecvAny whose earliest message is not yet safe to take
// — or finishes; the scheduler then resumes the runnable rank with the
// smallest resume time, ties by id. A whole run is therefore a function
// of the program and the fault plan alone: host scheduling reaches no
// simulated number, and no message store or rank record needs a lock.
//
// The same order detects failures. Wall-clock timeouts cannot work: a
// rank blocked on a message that will never come does not advance its
// virtual clock, so "has the deadline passed" is unanswerable in virtual
// time, and answering it in real time would make failure detection
// depend on the host. A lost rank or lost message instead leaves live
// ranks blocked with nothing runnable — an empty run queue — and the
// survivors reach that state the same way every run, so the clocks and
// counters in the failure report are reproducible.

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

// WaitInfo is what one blocked rank waited on when the watchdog declared
// failure.
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
// Every field is deterministic for a fixed program and fault plan, except
// in a report of Kind "wall-backstop".
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
	// Waits lists what each still-blocked rank waited on.
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
	waitNone waitKind = iota // runnable
	waitRecv
	waitRecvAny
	waitBarrier
)

func (k waitKind) String() string { return [...]string{"", "recv", "recvany", "barrier"}[k] }

// waiter describes what a suspended rank waits for, so a send knows
// whether to queue it.
type waiter struct {
	kind     waitKind
	src, tag int
}

// Run executes body on every rank and returns once each has finished or
// unwound. It is the moral equivalent of mpirun.
//
// Each body runs as a coroutine under the scheduler above. A rank that
// dies — killed by the fault plan, or panicking on its own — does not
// hang the world: it is marked dead, the survivors run until nothing is
// runnable, and that wedge becomes a FailureReport (see Failure), after
// which every blocked rank unwinds. A panic unrelated to the runtime is
// reported with Kind "panic" and its value preserved.
func (w *World) Run(body func(r *Rank)) {
	w.failure.Store(nil)
	w.death = nil
	w.barrierCount, w.barrierPending = 0, 0
	if w.plan != nil && w.plan.WallBackstop > 0 {
		stop := w.startWallBackstop(w.plan.WallBackstop) //gesp:wallclock sanctioned backstop: host timer only converts a wedged simulation into a report
		defer stop()
	}
	for _, r := range w.ranks {
		r.state, r.wait = stRunning, waiter{}
		r.next, r.stop = iter.Pull(func(yield func(handoff) bool) {
			r.yield = yield
			defer func() { w.exit(r, recover()) }()
			body(r)
		})
		w.queue.lower(r, r.clock)
	}
	for {
		for len(w.queue) > 0 {
			w.queue.pop().next()
		}
		if !w.wedge() {
			break
		}
	}
	for _, r := range w.ranks {
		r.stop() //gesp:wallclock stop only unwinds a suspended rank body; the call graph resolves this func() value to every func() in the program
	}
}

// handoff is what a rank's coroutine yields to the scheduler: nothing
// but control. It is a type of its own so that the interprocedural lint
// does not resolve r.next() to every func() (struct{}, bool) in the
// program.
type handoff struct{}

// suspend hands control back to the scheduler until the rank is resumed,
// recording wt as what it waits on meanwhile. A false from yield means
// Run is stopping the coroutine: the rank unwinds as on a world failure.
func (r *Rank) suspend(wt waiter) {
	r.wait = wt
	if !r.yield(handoff{}) {
		panic(rankUnwind{})
	}
	r.wait = waiter{}
}

// wake queues dst if m, just put in its mailbox, can end its wait: a Recv
// on m's (source, tag) resumes at max(clock, arrival), and a RecvAny no
// later than that for any message.
func (w *World) wake(dst *Rank, m *message) {
	wt := dst.wait
	if wt.kind == waitRecvAny || wt.kind == waitRecv && dst.slot < 0 && wt.src == m.src && wt.tag == m.tag {
		w.queue.lower(dst, max(dst.clock, m.arrival))
	}
}

// lookahead is the least virtual time between a rank's next action and
// the arrival of a message it sends then.
func (w *World) lookahead() float64 { return w.Model.SendOverhead + w.Model.Latency }

// exit records how rank r's body ended: normally or unwound by the
// runtime, or with a panic of its own, which kills the rank.
func (w *World) exit(r *Rank, e any) {
	if _, unwound := e.(rankUnwind); e != nil && !unwound {
		w.rankDead(r, "panic", e)
	} else if r.state == stRunning {
		r.state = stDone
	}
}

// rankDead marks r dead (kill, over-deadline stall, or panic). The world
// is not failed at once: the survivors run on until nothing is runnable,
// and the first death becomes that wedge's root cause.
func (w *World) rankDead(r *Rank, kind string, panicValue any) {
	r.state = stDead
	if w.death == nil {
		w.death = &FailureReport{Err: ErrRankDead, Kind: kind, Rank: r.id, FaultTime: r.clock, PanicValue: panicValue}
	}
}

// wedge handles an empty run queue. If no rank is live it reports false.
// Otherwise every live rank is blocked on something no rank can still
// send: wedge declares the failure (unless one already is), queues the
// blocked ranks so each observes it and unwinds, and reports true.
func (w *World) wedge() bool {
	f := &FailureReport{Err: ErrTimeout, Kind: "wedge", Rank: -1}
	for _, r := range w.ranks {
		if r.state != stRunning {
			continue
		}
		wi := WaitInfo{Rank: r.id, Op: r.wait.kind.String(), Src: -1, Tag: -1, Clock: r.clock}
		if r.wait.kind == waitRecv {
			wi.Src, wi.Tag = r.wait.src, r.wait.tag
		}
		f.Waits = append(f.Waits, wi)
		f.FaultTime = max(f.FaultTime, r.clock)
		w.queue.lower(r, r.clock)
	}
	if f.Waits == nil {
		return false
	}
	f.DetectedAt = f.FaultTime + w.plan.watchdog()
	if d := w.death; d != nil {
		f.Err, f.Kind, f.Rank, f.FaultTime, f.PanicValue = d.Err, d.Kind, d.Rank, d.FaultTime, d.PanicValue
	}
	f.LastRecv = make([]RecvStamp, w.P)
	for i, r := range w.ranks {
		f.LastRecv[i] = r.lastRecv
	}
	w.failure.CompareAndSwap(nil, f)
	return true
}

// Failure returns the watchdog's report for the last Run, or nil if the
// world completed cleanly. Call after Run returns.
func (w *World) Failure() *FailureReport {
	return w.failure.Load()
}

// startWallBackstop arms the real-time safety net: if the world is
// still running after d of wall time, it is force-failed (every rank
// unwinds at its next runtime call) so a test suite cannot hang even if
// the deterministic watchdog itself is broken. This is the one
// deliberate wall-clock dependency in the simulator — it only fires on
// bugs, and its report is marked nondeterministic.
//
//gesp:wallclock
func (w *World) startWallBackstop(d time.Duration) func() {
	t := time.AfterFunc(d, func() {
		w.failure.CompareAndSwap(nil, &FailureReport{Err: ErrTimeout, Kind: "wall-backstop", Rank: -1})
	})
	return func() { t.Stop() }
}

// runQueue is the scheduler's min-heap of runnable ranks, ordered by
// (resume time, id); r.slot is r's position, -1 while r is not queued.
type runQueue []*Rank

// before reports whether a rank resuming at t with the given id runs
// ahead of r.
func before(t float64, id int, r *Rank) bool {
	// Equal resume times are common and fall through to the id order,
	// which is what makes the schedule deterministic.
	//gesp:floateq
	return t < r.at || (t == r.at && id < r.id)
}

// first reports whether a rank resuming at t with the given id would run
// ahead of every queued rank.
func (q runQueue) first(t float64, id int) bool { return len(q) == 0 || before(t, id, q[0]) }

// lower queues r to resume at t, or moves it up to t if it is queued
// later.
func (q *runQueue) lower(r *Rank, t float64) {
	if r.slot < 0 {
		r.slot = len(*q)
		*q = append(*q, r)
	} else if t >= r.at {
		return
	}
	r.at = t
	q.up(r.slot)
}

// pop dequeues the rank that resumes first.
func (q *runQueue) pop() *Rank {
	h := *q
	r, n := h[0], len(h)-1
	h.swap(0, n)
	*q = h[:n]
	q.down(0)
	r.slot = -1
	return r
}

func (q runQueue) swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].slot, q[j].slot = i, j
}

func (q runQueue) up(i int) {
	for p := (i - 1) / 2; i > 0 && before(q[i].at, q[i].id, q[p]); i, p = p, (p-1)/2 {
		q.swap(i, p)
	}
}

func (q runQueue) down(i int) {
	for c := 2*i + 1; c < len(q); i, c = c, 2*c+1 {
		if c+1 < len(q) && before(q[c+1].at, q[c+1].id, q[c]) {
			c++
		}
		if !before(q[c].at, q[c].id, q[i]) {
			return
		}
		q.swap(i, c)
	}
}
