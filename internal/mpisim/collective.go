package mpisim

// This file adds the collective and wildcard-receive operations the
// distributed solver needs beyond plain Send/Recv.

// Barrier blocks until every rank has entered it; on release all virtual
// clocks advance to the latest participant's clock plus one latency
// (a tree barrier would be cheaper, but the solver only uses barriers
// between phases, where the constant does not matter). If the watchdog
// declares the world failed while waiting — a participant died and the
// barrier can never complete — the rank unwinds instead of blocking
// forever (see World.Run); use BarrierTimeout to handle it in place.
func (r *Rank) Barrier() {
	if err := r.BarrierTimeout(); err != nil {
		panic(rankAbort{err})
	}
}

// BarrierTimeout is Barrier with watchdog protection surfaced as an
// error: ErrRankDead or ErrTimeout once the watchdog declares the
// barrier unreachable, with the rank's clock advanced to the detection
// time.
func (r *Rank) BarrierTimeout() error {
	r.applyFaults()
	w := r.world
	if f := w.sup.failure.Load(); f != nil {
		return r.failed(f)
	}
	w.barrierMu.Lock()
	if r.clock > w.barrierClockPending {
		w.barrierClockPending = r.clock
	}
	w.barrierCount++
	gen := w.barrierGen
	if w.barrierCount == w.P {
		w.barrierClock = w.barrierClockPending + w.Model.Latency
		w.barrierClockPending = 0
		w.barrierCount = 0
		w.barrierGen++
		w.barrierCond.Broadcast()
		release := w.barrierClock
		w.barrierMu.Unlock()
		r.waitUntil(release)
		return nil
	}
	w.barrierMu.Unlock()
	if err := w.sup.block(r.id, waiter{kind: waitBarrier, gen: gen, clock: r.clock}); err != nil {
		return r.failed(w.sup.failure.Load())
	}
	w.barrierMu.Lock()
	for gen == w.barrierGen && w.sup.failure.Load() == nil {
		w.barrierCond.Wait()
	}
	released := gen != w.barrierGen
	release := w.barrierClock
	w.barrierMu.Unlock()
	w.sup.unblock(r.id)
	if !released {
		return r.failed(w.sup.failure.Load())
	}
	r.waitUntil(release)
	return nil
}

// Probe reports whether a message from src with tag is already queued.
func (r *Rank) Probe(src, tag int) bool {
	return src >= 0 && r.world.mail[r.id].queued(src, tag)
}

// RecvAny blocks until any message is queued for this rank, then returns
// the one with the earliest virtual arrival among the heads of the
// (source, tag) FIFOs (ties broken by source then tag, keeping the
// discrete-event order as deterministic as the real scheduling allows).
// It returns the source, tag and payload. This is the MPI_ANY_SOURCE
// receive of the paper's message-driven triangular solve. On world
// failure the rank unwinds (see World.Run); use RecvAnyTimeout to handle
// the failure in place.
func (r *Rank) RecvAny() (src, tag int, payload any) {
	src, tag, payload, err := r.RecvAnyTimeout()
	if err != nil {
		panic(rankAbort{err})
	}
	return src, tag, payload
}

// RecvAnyTimeout is RecvAny with watchdog protection surfaced as an
// error (ErrRankDead or ErrTimeout, clock advanced to detection time).
func (r *Rank) RecvAnyTimeout() (src, tag int, payload any, err error) {
	m, err := r.recv(-1, 0)
	if err != nil {
		return -1, -1, nil, err
	}
	return m.src, m.tag, m.payload, nil
}

// Tags reserved for collectives; user tags must stay below tagCollective.
const tagCollective = 1 << 19

// Bcast distributes root's value to every rank and returns it (a flat
// broadcast: root sends P-1 messages, like the paper's panel broadcasts).
func (r *Rank) Bcast(root int, value any, bytes int) any {
	if r.id == root {
		for dst := 0; dst < r.world.P; dst++ {
			if dst != root {
				r.Send(dst, tagCollective, value, bytes)
			}
		}
		return value
	}
	return r.Recv(root, tagCollective)
}

// AllreduceSum sums a float64 contribution across all ranks and returns
// the total on every rank (gather to rank 0, then broadcast).
func (r *Rank) AllreduceSum(v float64) float64 {
	return r.allreduce(v, tagCollective+1, func(acc, x float64) float64 { return acc + x })
}

// AllreduceMax returns the maximum of the contributions on every rank.
func (r *Rank) AllreduceMax(v float64) float64 {
	return r.allreduce(v, tagCollective+3, func(acc, x float64) float64 {
		if x > acc {
			return x
		}
		return acc
	})
}

// allreduce folds every rank's v into rank 0's in rank order with op,
// on tag, and broadcasts the result on tag+1.
func (r *Rank) allreduce(v float64, tag int, op func(acc, x float64) float64) float64 {
	const bytes = 8
	if r.id != 0 {
		r.Send(0, tag, v, bytes)
		return r.Recv(0, tag+1).(float64)
	}
	for src := 1; src < r.world.P; src++ {
		v = op(v, r.Recv(src, tag).(float64))
	}
	for dst := 1; dst < r.world.P; dst++ {
		r.Send(dst, tag+1, v, bytes)
	}
	return v
}
