// Package mpisim is the message-passing substrate standing in for MPI on
// the Cray T3E (see DESIGN.md: the build environment has no MPI, so the
// distributed algorithms run on an in-process runtime).
//
// Each rank is a goroutine. Point-to-point messages carry a tag and are
// matched by (source, tag) like MPI_Recv. On top of real concurrency the
// runtime keeps a LogGP-style *virtual clock* per rank:
//
//   - computation advances the local clock by flops·CostPerFlop,
//   - a message send costs SendOverhead on the sender,
//   - a receive completes at max(receiver clock, sender timestamp +
//     Latency + bytes·CostPerByte), and the receiver's waiting time is
//     accounted as communication time.
//
// Simulated time is deterministic and machine independent, which is what
// the scaling tables (paper Tables 3–5) are measured in; wall-clock time
// is also real because ranks genuinely run in parallel.
//
// A message's arrival is fixed when it is sent. Each rank's mailbox
// keeps one FIFO queue per source, deduplicated by a per-source
// sequence watermark, and a send wakes the receiver only when it waits
// on that (source, tag) or on any message.
package mpisim

import (
	"fmt"
	"sync"
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
	seq      int64 // per-(src,dst) sequence number, for idempotent delivery
	// floor is the send clock plus latency, arrival adds bytes·cost and
	// any injected delay. A source's floors never decrease along its
	// sends, and floor ≤ arrival.
	floor, arrival float64
}

// World is one simulated machine: P ranks with per-rank mailboxes.
type World struct {
	P     int
	Model CostModel

	mail []*mailbox
	plan *FaultPlan
	sup  *supervisor

	// Chaos accounting (only nonzero under a fault plan).
	dropped    atomic.Int64
	duplicated atomic.Int64
	deduped    atomic.Int64
	delayed    atomic.Int64
	stalls     atomic.Int64

	barrierMu   sync.Mutex
	barrierCond *sync.Cond
	//gesp:guardedby:barrierMu
	barrierCount int
	//gesp:guardedby:barrierMu
	barrierGen int
	//gesp:guardedby:barrierMu
	barrierClock float64
	//gesp:guardedby:barrierMu
	barrierClockPending float64

	ranks []*Rank
}

// NewWorld creates a simulator with p ranks.
func NewWorld(p int, model CostModel) *World {
	w := &World{P: p, Model: model}
	w.barrierCond = sync.NewCond(&w.barrierMu)
	w.mail = make([]*mailbox, p)
	w.ranks = make([]*Rank, p)
	for i := 0; i < p; i++ {
		w.mail[i] = newMailbox(p)
		w.ranks[i] = &Rank{world: w, id: i, seqTo: make([]int64, p)}
		w.ranks[i].lastRecvKey.Store(-1)
	}
	w.sup = newSupervisor(w)
	return w
}

// InstallFaults attaches a chaos schedule to the world; call before
// Run. The same plan may be shared across the successive worlds of a
// checkpoint/restart driver — one-shot events (kills, stalls, the drop
// budget) fire at most once across the whole lineage.
func (w *World) InstallFaults(p *FaultPlan) { w.plan = p }

// Run executes body on every rank concurrently and waits for all to
// finish. It is the moral equivalent of mpirun.
//
// Unlike a bare goroutine fan-out, a rank that dies — killed by the
// fault plan, aborted by a world failure, or panicking on its own —
// does not hang the world: the supervisor marks it dead, the survivors
// run to a quiescent state, and the watchdog converts the inevitable
// wedge into a FailureReport (see Failure). A panic unrelated to the
// runtime is reported with Kind "panic" and its value preserved.
func (w *World) Run(body func(r *Rank)) {
	w.sup = newSupervisor(w) // fresh supervision per Run (worlds may Run repeatedly)
	if w.plan != nil && w.plan.WallBackstop > 0 {
		stop := w.startWallBackstop(w.plan.WallBackstop) //gesp:wallclock sanctioned backstop: host timer only converts a wedged simulation into a report
		defer stop()
	}
	var wg sync.WaitGroup
	wg.Add(w.P)
	for i := 0; i < w.P; i++ {
		go func(r *Rank) {
			defer wg.Done()
			defer func() {
				switch e := recover(); e.(type) {
				case nil:
					w.sup.rankDone(r.id)
				case rankDeath, rankAbort:
					// Already accounted by the supervisor (death) or a
					// consequence of an existing failure (abort).
					w.sup.rankDone(r.id)
				default:
					w.sup.rankDead(r.id, "panic", r.clock, e)
				}
			}()
			body(r)
		}(w.ranks[i])
	}
	wg.Wait()
}

// Rank is one simulated processor.
type Rank struct {
	world *World
	id    int

	clock    float64 // virtual time (seconds)
	commTime float64 // part of clock spent sending/waiting
	flops    int64
	sent     int64   // messages sent
	sentVol  int64   // payload bytes sent
	seqTo    []int64 // per-destination send sequence numbers

	// Last delivered message, for failure reports (read by the
	// supervisor while this rank may still be running).
	lastRecvKey atomic.Int64 // src<<20|tag, -1 if none yet
	lastRecvSeq atomic.Int64
}

// ID returns the rank number in [0, P).
func (r *Rank) ID() int { return r.id }

// Size returns the number of ranks.
func (r *Rank) Size() int { return r.world.P }

// applyFaults consults the fault plan at a runtime-call boundary: a
// pending kill unwinds the rank (marking it dead with the supervisor),
// a short stall just advances the virtual clock, and a stall past the
// watchdog deadline counts as death (no watchdog could tell the
// difference).
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
			r.world.stalls.Add(1)
			continue
		}
		kind := "kill"
		if rf.Stall > 0 {
			kind = "stall"
		}
		r.world.sup.rankDead(r.id, kind, r.clock, nil)
		panic(rankDeath{})
	}
}

// failed charges the watchdog's detection time to the rank's clock and
// returns the failure error. It also clears any stale block record.
func (r *Rank) failed(f *FailureReport) error {
	r.world.sup.unblock(r.id)
	r.waitUntil(f.DetectedAt)
	return f.Err
}

// waitUntil advances the clock to t, if later, charging the gap to
// communication.
func (r *Rank) waitUntil(t float64) {
	if t > r.clock {
		r.commTime += t - r.clock
		r.clock = t
	}
}

// deliver advances the rank's clock to a received message's arrival
// time and records the receive stamp for failure reports.
func (r *Rank) deliver(m *message) {
	r.lastRecvKey.Store(int64(tagKey(m.src, m.tag)))
	r.lastRecvSeq.Store(m.seq)
	r.waitUntil(m.arrival)
}

// Compute advances the rank's virtual clock by the cost of the given
// floating-point operations.
func (r *Rank) Compute(flops int64) {
	r.applyFaults()
	r.flops += flops
	r.clock += float64(flops) * r.world.Model.CostPerFlop
}

// Elapse advances the virtual clock by a fixed amount of non-flop work
// (indexing, packing); cost accounting only.
func (r *Rank) Elapse(seconds float64) {
	r.applyFaults()
	r.clock += seconds
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
	w := r.world
	if f := w.sup.failure.Load(); f != nil {
		panic(rankAbort{r.failed(f)})
	}
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
			w.dropped.Add(1)
			return
		}
		if delay = p.delayFor(r.id, dst, tag, m.seq); delay > 0 {
			w.delayed.Add(1)
		}
		if dup = p.dupMessage(r.id, dst, tag, m.seq); dup {
			w.duplicated.Add(1)
		}
	}
	m.floor = r.clock + w.Model.Latency
	m.arrival = m.floor + float64(bytes)*w.Model.CostPerByte + delay
	if w.mail[dst].put(m) {
		w.deduped.Add(1)
	}
	if dup && w.mail[dst].put(m) {
		w.deduped.Add(1)
	}
}

// Recv blocks until a message with the given source and tag arrives, then
// returns its payload. The virtual clock advances to the message's
// arrival time (transit = latency + bytes·cost + injected delay), and
// any gap the rank spent blocked is accounted as communication time.
// If the watchdog declares the world failed while waiting, Recv unwinds
// the rank instead of blocking forever (see Run); use RecvTimeout to
// handle the failure in place.
func (r *Rank) Recv(src, tag int) any {
	payload, err := r.RecvTimeout(src, tag)
	if err != nil {
		panic(rankAbort{err})
	}
	return payload
}

// RecvTimeout is Recv with watchdog protection surfaced as an error:
// when the awaited message can no longer arrive — the sender died, the
// message was dropped and the world wedged, or the wall backstop fired —
// it returns ErrRankDead or ErrTimeout (the rank's clock advanced to
// the detection time) instead of blocking forever.
func (r *Rank) RecvTimeout(src, tag int) (any, error) {
	m, err := r.recv(src, tag)
	return m.payload, err
}

// recv is the one blocking receive: the first (src, tag) message, or
// with src < 0 the message RecvAny's rule picks (see mailbox.take).
// While it waits, the mailbox knows what for, so only a message that
// can satisfy the wait wakes it.
func (r *Rank) recv(src, tag int) (message, error) {
	r.applyFaults()
	w := r.world
	mb := w.mail[r.id]
	wt, want := waiter{kind: waitRecvAny}, wantAny
	if src >= 0 {
		wt, want = waiter{kind: waitRecv, src: src, tag: tag}, tagKey(src, tag)
	}
	for {
		if f := w.sup.failure.Load(); f != nil {
			return message{}, r.failed(f)
		}
		mb.mu.Lock()
		m, ok := mb.take(src, tag)
		mb.mu.Unlock()
		if ok {
			r.deliver(&m)
			return m, nil
		}
		wt.clock = r.clock
		if err := w.sup.block(r.id, wt); err != nil {
			return message{}, r.failed(w.sup.failure.Load())
		}
		mb.mu.Lock()
		mb.want = want
		for !mb.ready(src, tag) && w.sup.failure.Load() == nil {
			mb.cond.Wait()
		}
		mb.want = wantNone
		mb.mu.Unlock()
		w.sup.unblock(r.id)
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
	s.Dropped = w.dropped.Load()
	s.Duplicated = w.duplicated.Load()
	s.Deduped = w.deduped.Load()
	s.Delayed = w.delayed.Load()
	s.Stalls = w.stalls.Load()
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
// from the rank's own goroutine before it does any work.
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
