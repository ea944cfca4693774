// Package mpisim is the message-passing substrate standing in for MPI on
// the Cray T3E (see DESIGN.md: the build environment has no MPI, so the
// distributed algorithms run on an in-process runtime).
//
// Each rank runs its body as a coroutine, and a virtual-time scheduler
// resumes one rank at a time (sched.go). Point-to-point messages carry a
// tag and are matched by (source, tag) like MPI_Recv. The runtime keeps
// a LogGP-style *virtual clock* per rank:
//
//   - computation advances the local clock by flops·CostPerFlop,
//   - a message send costs SendOverhead on the sender,
//   - a receive completes at max(receiver clock, sender timestamp +
//     Latency + bytes·CostPerByte), and the receiver's waiting time is
//     accounted as communication time.
//
// Simulated time is what the scaling tables (paper Tables 3–5) are
// measured in. It is deterministic and machine independent, and so is
// every choice the runtime makes: RecvAny takes the earliest message in
// virtual time once no rank could still send an earlier one, so a run —
// its clocks, its message order, its floating-point results — is a
// function of the program and the fault plan alone.
//
// A message's arrival is fixed when it is sent. Each rank's mailbox
// keeps one ring of messages per source, deduplicated by a per-source
// sequence watermark; once the rank has called RecvAny, the first
// message of every (source, tag) also sits in a heap by arrival. A send
// queues the receiver only when the message can end its wait.
package mpisim

import (
	"fmt"
	"sync/atomic"
)

// CostModel is the LogGP-style machine model. The defaults approximate a
// Cray T3E-900: ~20µs MPI latency, ~300 MB/s sustained bandwidth, and an
// effective 450 Mflop/s per-PE supernodal kernel rate (the paper reports
// ~8 Gflops aggregate on 512 PEs with >50% communication time).
type CostModel struct {
	Latency      float64 // seconds per message
	CostPerByte  float64 // seconds per payload byte
	CostPerFlop  float64 // seconds per floating-point operation
	SendOverhead float64 // sender-side CPU cost per message
}

// T3E900 is the default calibration.
func T3E900() CostModel {
	return CostModel{
		Latency:      20e-6,
		CostPerByte:  1.0 / 300e6,
		CostPerFlop:  1.0 / 450e6,
		SendOverhead: 5e-6,
	}
}

// message is an in-flight point-to-point message.
type message struct {
	src, tag int
	payload  any
	seq      int64   // per-(src,dst) sequence number, for idempotent delivery
	arrival  float64 // send clock + latency + bytes·cost + any injected delay
}

// World is one simulated machine: P ranks with per-rank mailboxes.
type World struct {
	P     int
	Model CostModel

	mail  []mailbox
	ranks []*Rank
	plan  *FaultPlan

	// The scheduler's state (sched.go): the runnable ranks, the declared
	// failure (atomic only for the wall backstop's timer), and the first
	// rank death, which becomes its root cause.
	queue   runQueue
	failure atomic.Pointer[FailureReport]
	death   *FailureReport

	// Chaos accounting (only nonzero under a fault plan).
	dropped, duplicated, deduped, delayed, stalls int64

	// The barrier in progress: ranks arrived, their latest clock, and the
	// count and release clock of completed barriers.
	barrierCount   int
	barrierPending float64
	barrierGen     int
	barrierClock   float64
}

// NewWorld creates a simulator with p ranks.
func NewWorld(p int, model CostModel) *World {
	w := &World{P: p, Model: model, mail: make([]mailbox, p), ranks: make([]*Rank, p)}
	for i := range w.ranks {
		w.mail[i] = newMailbox(p)
		w.ranks[i] = &Rank{world: w, id: i, seqTo: make([]int64, p), lastRecv: RecvStamp{Src: -1, Tag: -1}, slot: -1}
	}
	return w
}

// InstallFaults attaches a chaos schedule to the world; call before
// Run. The same plan may be shared across the successive worlds of a
// checkpoint/restart driver — one-shot events (kills, stalls, the drop
// budget) fire at most once across the whole lineage.
func (w *World) InstallFaults(p *FaultPlan) { w.plan = p }

// Rank is one simulated processor.
type Rank struct {
	world *World
	id    int

	clock    float64 // virtual time (seconds)
	commTime float64 // part of clock spent sending/waiting
	flops    int64
	sent     int64     // messages sent
	sentVol  int64     // payload bytes sent
	seqTo    []int64   // per-destination send sequence numbers
	lastRecv RecvStamp // last delivered message, for failure reports

	// Scheduling (sched.go): liveness, what the rank waits on while
	// suspended, its run-queue key and position, and its coroutine.
	state rankState
	wait  waiter
	at    float64
	slot  int
	yield func(handoff) bool
	next  func() (handoff, bool)
	stop  func()
}

// ID returns the rank number in [0, P).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.world.P }

// applyFaults consults the fault plan at a runtime-call boundary: a
// pending kill unwinds the rank, marking it dead, a short stall just
// advances the virtual clock, and a stall past the watchdog deadline
// counts as death (no watchdog could tell the difference).
func (r *Rank) applyFaults() {
	p := r.world.plan
	if p == nil {
		return
	}
	for {
		rf := p.nextRankFault(r.id, r.clock)
		if rf == nil {
			return
		}
		if rf.Stall > 0 && rf.Stall < p.watchdog() {
			r.clock += rf.Stall
			r.world.stalls++
			continue
		}
		kind := "kill"
		if rf.Stall > 0 {
			kind = "stall"
		}
		r.world.rankDead(r, kind, nil)
		panic(rankUnwind{})
	}
}

// abortIfFailed unwinds the rank once the world has failed, charging the
// watchdog's detection time to its clock.
func (r *Rank) abortIfFailed() {
	if f := r.world.failure.Load(); f != nil {
		r.waitUntil(f.DetectedAt)
		panic(rankUnwind{})
	}
}

// waitUntil advances the clock to t, if later, charging the gap to
// communication.
func (r *Rank) waitUntil(t float64) {
	if t > r.clock {
		r.commTime += t - r.clock
		r.clock = t
	}
}

// deliver removes the message at position pos of src's queue, advances
// the clock to its arrival and records the receive for failure reports.
func (r *Rank) deliver(src, pos int) message {
	m := r.world.mail[r.id].take(src, pos)
	r.lastRecv = RecvStamp{Src: m.src, Tag: m.tag, Seq: m.seq}
	r.waitUntil(m.arrival)
	return m
}

// Compute advances the rank's virtual clock by the cost of the given
// floating-point operations.
func (r *Rank) Compute(flops int64) {
	r.applyFaults()
	r.flops += flops
	r.clock += float64(flops) * r.world.Model.CostPerFlop
}

// Send delivers payload to rank dst with the given tag. bytes is the
// modelled payload size (the Go value itself is passed by reference; the
// simulation charges the modelled size). Under a fault plan the message
// may be dropped, duplicated or delayed; delivery is idempotent, so a
// duplicate is discarded at the destination. If the world has already
// failed, Send unwinds the rank (see Run).
func (r *Rank) Send(dst, tag int, payload any, bytes int) {
	if dst == r.id {
		panic("mpisim: send to self")
	}
	tagKey(r.id, tag) // range check
	r.applyFaults()
	r.abortIfFailed()
	w := r.world
	r.clock += w.Model.SendOverhead
	r.commTime += w.Model.SendOverhead
	r.seqTo[dst]++
	m := message{src: r.id, tag: tag, payload: payload, seq: r.seqTo[dst]}
	r.sent++
	r.sentVol += int64(bytes)
	delay := 0.0
	dup := false
	if p := w.plan; p != nil {
		if p.dropMessage(r.id, dst, tag, m.seq) {
			w.dropped++
			return
		}
		if delay = p.delayFor(r.id, dst, tag, m.seq); delay > 0 {
			w.delayed++
		}
		if dup = p.dupMessage(r.id, dst, tag, m.seq); dup {
			w.duplicated++
		}
	}
	m.arrival = r.clock + w.Model.Latency + float64(bytes)*w.Model.CostPerByte + delay
	w.post(dst, &m)
	if dup {
		w.post(dst, &m)
	}
}

// post puts m in dst's mailbox and queues dst if m can end its wait.
func (w *World) post(dst int, m *message) {
	if w.mail[dst].put(*m) {
		w.deduped++
		return
	}
	w.wake(w.ranks[dst], m)
}

// Recv blocks until a message with the given source and tag arrives, then
// returns its payload. The virtual clock advances to the message's
// arrival time (transit = latency + bytes·cost + injected delay), and
// any gap the rank spent blocked is accounted as communication time.
// If the watchdog declares the world failed while waiting, Recv unwinds
// the rank instead of blocking forever (see Run).
func (r *Rank) Recv(src, tag int) any {
	r.applyFaults()
	q := &r.world.mail[r.id].from[src]
	for {
		r.abortIfFailed()
		if pos := q.find(tag); pos >= 0 {
			return r.deliver(src, pos).payload
		}
		r.suspend(waiter{kind: waitRecv, src: src, tag: tag})
	}
}

func tagKey(src, tag int) int {
	if tag < 0 || tag >= 1<<20 {
		panic("mpisim: tag out of range (must fit in 20 bits)")
	}
	return src<<20 | tag
}

// Clock returns the rank's virtual time in seconds.
func (r *Rank) Clock() float64 { return r.clock }

// CommTime returns the virtual time spent in communication.
func (r *Rank) CommTime() float64 { return r.commTime }

// Flops returns the floating-point operations performed.
func (r *Rank) Flops() int64 { return r.flops }

// MsgsSent returns the number of messages this rank sent.
func (r *Rank) MsgsSent() int64 { return r.sent }

// BytesSent returns the payload volume this rank sent.
func (r *Rank) BytesSent() int64 { return r.sentVol }

// Stats aggregates the whole world after Run returns.
type Stats struct {
	// Time is the simulated parallel runtime: max over ranks of Clock.
	Time float64
	// CommFraction is Σ commTime / Σ clock, the paper's Table 5 metric.
	CommFraction float64
	// LoadBalance is avg(flops)/max(flops), the paper's factor B.
	LoadBalance float64
	// Messages and Volume are totals over all ranks.
	Messages int64
	Volume   int64
	// TotalFlops over all ranks; Mflops = TotalFlops/Time/1e6.
	TotalFlops int64
	// Chaos accounting, all zero without a fault plan: messages lost in
	// the network, deliberately double-delivered, discarded by the
	// idempotent-delivery dedup, given extra transit delay, and
	// transient rank stalls injected.
	Dropped, Duplicated, Deduped, Delayed, Stalls int64
}

// GatherStats summarizes the world's counters.
func (w *World) GatherStats() Stats {
	s := PhaseStats(make([]Snapshot, w.P), w.Snapshots())
	s.Dropped, s.Duplicated, s.Deduped, s.Delayed, s.Stalls = w.dropped, w.duplicated, w.deduped, w.delayed, w.stalls
	return s
}

// Mflops returns the simulated aggregate megaflop rate.
func (s Stats) Mflops() float64 {
	if s.Time == 0 {
		return 0
	}
	return float64(s.TotalFlops) / s.Time / 1e6
}

// Grid is a 2-D process grid of shape prow × pcol, the paper's layout for
// the block-cyclic distribution.
type Grid struct {
	PRow, PCol int
}

// NewGrid picks a near-square grid for p processes (prow ≤ pcol, matching
// the paper's "P = prow × pcol" arrangement).
func NewGrid(p int) Grid {
	pr := 1
	for d := 1; d*d <= p; d++ {
		if p%d == 0 {
			pr = d
		}
	}
	return Grid{PRow: pr, PCol: p / pr}
}

// Coords returns the (row, col) coordinate of a rank (row-major).
func (g Grid) Coords(rank int) (int, int) { return rank / g.PCol, rank % g.PCol }

// RankOf returns the rank at grid coordinate (pr, pc).
func (g Grid) RankOf(pr, pc int) int { return pr*g.PCol + pc }

// OwnerOfBlock maps block (I, J) to its owning rank under the 2-D
// block-cyclic distribution: process (I mod PRow, J mod PCol).
func (g Grid) OwnerOfBlock(i, j int) int {
	return g.RankOf(i%g.PRow, j%g.PCol)
}

func (g Grid) String() string { return fmt.Sprintf("%dx%d", g.PRow, g.PCol) }

// Snapshot captures a rank's counters so callers can attribute costs to
// phases (factorization vs solve) by differencing.
type Snapshot struct {
	Clock, Comm float64
	Flops       int64
	Msgs, Bytes int64
}

// Snap reads the rank's current counters.
func (r *Rank) Snap() Snapshot {
	return Snapshot{Clock: r.clock, Comm: r.commTime, Flops: r.flops, Msgs: r.sent, Bytes: r.sentVol}
}

// Restore resets the rank's accounting to a checkpoint snapshot and, if
// resumeAt is later, fast-forwards the clock to it (the failure
// detection time, so a restarted attempt's timeline continues where the
// failed one was declared dead). For checkpoint/restart drivers; call
// from the rank's own body before it does any work.
func (r *Rank) Restore(s Snapshot, resumeAt float64) {
	r.clock, r.commTime = s.Clock, s.Comm
	r.flops, r.sent, r.sentVol = s.Flops, s.Msgs, s.Bytes
	if resumeAt > r.clock {
		r.clock = resumeAt
	}
}

// Snapshots reads every rank's counters (indexed by rank). Call after
// Run returns — during a run the ranks own their counters.
func (w *World) Snapshots() []Snapshot {
	out := make([]Snapshot, w.P)
	for i, r := range w.ranks {
		out[i] = r.Snap()
	}
	return out
}

// PhaseStats summarizes one phase across all ranks from per-rank snapshot
// pairs taken at the phase boundaries (ranks must be barrier-aligned).
func PhaseStats(before, after []Snapshot) Stats {
	var s Stats
	var sumClock, sumComm float64
	var maxFlops int64
	for i := range before {
		dClock := after[i].Clock - before[i].Clock
		dComm := after[i].Comm - before[i].Comm
		dFlops := after[i].Flops - before[i].Flops
		if dClock > s.Time {
			s.Time = dClock
		}
		sumClock += dClock
		sumComm += dComm
		s.Messages += after[i].Msgs - before[i].Msgs
		s.Volume += after[i].Bytes - before[i].Bytes
		s.TotalFlops += dFlops
		if dFlops > maxFlops {
			maxFlops = dFlops
		}
	}
	if sumClock > 0 {
		s.CommFraction = sumComm / sumClock
	}
	if maxFlops > 0 {
		s.LoadBalance = float64(s.TotalFlops) / float64(len(before)) / float64(maxFlops)
	}
	return s
}
