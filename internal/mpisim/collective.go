package mpisim

// This file adds the barrier and the wildcard receive the distributed
// solver needs beyond plain Send/Recv.

// Barrier blocks until every rank has entered it; on release all virtual
// clocks advance to the latest participant's clock plus one latency
// (a tree barrier would be cheaper, but the solver only uses barriers
// between phases, where the constant does not matter). If the watchdog
// declares the world failed while waiting — a participant died and the
// barrier can never complete — the rank unwinds instead of blocking
// forever (see World.Run).
func (r *Rank) Barrier() {
	r.applyFaults()
	r.abortIfFailed()
	w := r.world
	w.barrierPending = max(w.barrierPending, r.clock)
	if w.barrierCount++; w.barrierCount < w.P {
		gen := w.barrierGen
		r.suspend(waiter{kind: waitBarrier})
		if gen == w.barrierGen {
			r.abortIfFailed() // resumed by a failure, not a release
		}
	} else {
		w.barrierClock = w.barrierPending + w.Model.Latency
		w.barrierPending, w.barrierCount = 0, 0
		w.barrierGen++
		for _, o := range w.ranks {
			if o.wait.kind == waitBarrier {
				w.queue.lower(o, w.barrierClock)
			}
		}
	}
	r.waitUntil(w.barrierClock)
}

// RecvAny blocks until a message is deliverable to this rank, then
// returns the one with the earliest virtual arrival among the heads of
// the (source, tag) FIFOs, ties broken by source then tag. It returns
// the source, tag and payload. This is the MPI_ANY_SOURCE receive of the
// paper's message-driven triangular solve.
//
// The choice is the virtual machine's, not the host's: the earliest
// queued message, delivered at t = max(clock, arrival), is taken only
// once no other rank could still send one arriving before t. Any rank
// resumes no earlier than its run-queue key and a message arrives at
// least lookahead after its send, so RecvAny takes it when t sorts
// ahead of every queued key plus lookahead, and otherwise suspends
// until the scheduler reaches t. On world failure the rank unwinds (see
// World.Run).
func (r *Rank) RecvAny() (src, tag int, payload any) {
	r.applyFaults()
	w := r.world
	mb := &w.mail[r.id]
	for {
		r.abortIfFailed()
		if src, pos := mb.next(); pos >= 0 {
			t := max(r.clock, mb.from[src].at(pos).arrival)
			if w.queue.first(t-w.lookahead(), r.id) {
				m := r.deliver(src, pos)
				return m.src, m.tag, m.payload
			}
			w.queue.lower(r, t)
		}
		r.suspend(waiter{kind: waitRecvAny})
	}
}
