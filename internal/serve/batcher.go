package serve

import (
	"context"
	"sync"
	"time"
)

// batcher coalesces solve requests against one factorization into
// multi-RHS batches. Admission policy: a lone request is cut at once; a
// batch of several is cut as soon as maxBatch requests are queued, or
// when the oldest queued request has waited maxDelay, whichever comes
// first. Waiting only pays when company is already there: a short
// timer fires on the runtime's millisecond netpoller tick rather than
// after maxDelay, so holding a lone request costs it about a
// millisecond and almost never buys a second one. Requests that arrive
// while a batch runs queue up and are cut together as its backlog.
//
// The queue is bounded at queueCap; requests beyond that are shed
// immediately with ErrOverloaded rather than blocking the caller —
// under overload the service degrades by rejecting, never by stalling.
//
// Execution is single-flight per factor: at most one goroutine runs
// batches for a batcher at a time (core.Solver.SolveBatch is not
// concurrency-safe on one solver), started on demand by the first
// enqueue and exiting when the queue drains, so an idle factor costs no
// goroutine.
type batcher struct {
	solver   solveBackend
	maxBatch int
	maxDelay time.Duration
	queueCap int
	m        *Metrics

	// fill carries a nudge from submit to the running cutter when the
	// queue reaches maxBatch, so a filling batch is cut without waiting
	// out the delay timer. Buffered: a stale nudge at worst cuts one
	// batch early, never blocks, never deadlocks.
	fill chan struct{}

	mu sync.Mutex
	//gesp:guardedby:mu
	queue []solveReq
	//gesp:guardedby:mu
	running bool
	//gesp:guardedby:mu
	closed bool
	// drained (a condition on mu) is broadcast when the cutter exits;
	// close waits on it until the queue has fully drained.
	drained sync.Cond

	// Cutter-private scratch, reused across cuts. The cutter is
	// single-flight (run exits before running flips false), so one set of
	// slots per batcher is race-free; steady-state cutting then allocates
	// nothing beyond what the backend itself needs.
	batchBuf []solveReq
	bsBuf    [][]float64
}

// solveBackend is what the batcher needs from core.Solver; an interface
// so batcher tests can fake pathological backends. The per-vector error
// slice (nil when all vectors succeeded) lets one poisoned right-hand
// side fail alone instead of taking its batch-mates down.
type solveBackend interface {
	SolveBatchCtx(ctx context.Context, bs [][]float64) ([][]float64, []error, error)
}

type solveReq struct {
	b    []float64
	enq  time.Time
	done chan solveDone
}

type solveDone struct {
	x   []float64
	err error
}

func newBatcher(solver solveBackend, maxBatch int, maxDelay time.Duration, queueCap int, m *Metrics) *batcher {
	b := &batcher{
		solver:   solver,
		maxBatch: maxBatch,
		maxDelay: maxDelay,
		queueCap: queueCap,
		m:        m,
		fill:     make(chan struct{}, 1),
	}
	b.drained.L = &b.mu
	return b
}

// submit enqueues one right-hand side and blocks until its batch has
// been solved or ctx expires. It returns ErrOverloaded without blocking
// when the queue is full. On ctx expiry the caller stops waiting but the
// request stays queued and is still solved with its batch (the done
// channel is buffered, so the cutter never blocks on an abandoned
// waiter); the ladder's per-rung deadline is what bounds the solve work
// itself.
func (b *batcher) submit(ctx context.Context, rhs []float64) ([]float64, error) {
	req := solveReq{b: rhs, enq: time.Now(), done: make(chan solveDone, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if len(b.queue) >= b.queueCap {
		depth := len(b.queue)
		b.mu.Unlock()
		b.m.shed.Add(1)
		// RetryAfter is the admission heuristic: one more delay window is
		// roughly when the oldest queued batch will have been cut, freeing
		// queue slots. A router holding a replica should prefer it over
		// waiting this out.
		hint := b.maxDelay
		if hint <= 0 {
			hint = 100 * time.Microsecond
		}
		return nil, &OverloadedError{QueueDepth: depth, RetryAfter: hint}
	}
	b.queue = append(b.queue, req)
	depth := len(b.queue)
	start := !b.running
	if start {
		b.running = true
	}
	b.mu.Unlock()

	b.m.queueDepth.Add(1)
	if start {
		go b.run()
	} else if depth >= b.maxBatch {
		select {
		case b.fill <- struct{}{}:
		default:
		}
	}
	select {
	case d := <-req.done:
		return d.x, d.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// run is the cutter loop: cut a batch, solve it, repeat until the queue
// is empty, then exit.
func (b *batcher) run() {
	for {
		b.mu.Lock()
		if len(b.queue) == 0 {
			b.running = false
			b.drained.Broadcast()
			b.mu.Unlock()
			return
		}
		if n := len(b.queue); n > 1 && n < b.maxBatch && !b.closed {
			// Several queued but not full: hold admission until the oldest
			// request has waited out maxDelay or the queue fills, then cut.
			// No batch is in flight here (the cutter is single-flight), so
			// a lone request has nothing to wait for and is cut at once. A
			// closed batcher skips the wait — nothing further can arrive,
			// so drain at full speed.
			wait := b.maxDelay - time.Since(b.queue[0].enq)
			if wait > 0 {
				b.mu.Unlock()
				t := time.NewTimer(wait)
				select {
				case <-b.fill:
					t.Stop()
				case <-t.C:
				}
				b.mu.Lock()
			}
		}
		k := len(b.queue)
		if k > b.maxBatch {
			k = b.maxBatch
		}
		if cap(b.batchBuf) < k {
			b.batchBuf = make([]solveReq, b.maxBatch)
		}
		batch := b.batchBuf[:k]
		copy(batch, b.queue[:k])
		rest := copy(b.queue, b.queue[k:])
		for i := rest; i < len(b.queue); i++ {
			b.queue[i] = solveReq{} // release references held past the cut
		}
		b.queue = b.queue[:rest]
		b.mu.Unlock()

		b.m.queueDepth.Add(-int64(k))
		b.exec(batch)
		for i := range batch {
			batch[i] = solveReq{} // release references until the next cut
		}
	}
}

// close stops admission (later submits get ErrClosed) and blocks until
// the cutter has solved everything already queued and exited. Closing
// an idle or already-closed batcher returns immediately; queued
// requests are never abandoned — graceful drain, not abort.
func (b *batcher) close() {
	b.mu.Lock()
	b.closed = true
	// Nudge a cutter parked in its delay window so the drain does not
	// wait out the admission timer.
	select {
	case b.fill <- struct{}{}:
	default:
	}
	for b.running {
		b.drained.Wait()
	}
	b.mu.Unlock()
}

// exec solves one batch and fans the results (or the shared error) back
// out to the waiting submitters.
func (b *batcher) exec(batch []solveReq) {
	if cap(b.bsBuf) < len(batch) {
		b.bsBuf = make([][]float64, b.maxBatch)
	}
	bs := b.bsBuf[:len(batch)]
	for i := range batch {
		bs[i] = batch[i].b
	}
	defer func() {
		for i := range bs {
			bs[i] = nil
		}
	}()
	t0 := time.Now()
	for i := range batch {
		b.m.observePhase(PhaseQueue, t0.Sub(batch[i].enq))
	}
	xs, errs, err := b.solver.SolveBatchCtx(context.Background(), bs)
	b.m.observePhase(PhaseSolve, time.Since(t0))
	b.m.observeBatch(len(batch))
	for i := range batch {
		switch {
		case err != nil:
			batch[i].done <- solveDone{err: err}
		case errs != nil && errs[i] != nil:
			batch[i].done <- solveDone{err: errs[i]}
		default:
			batch[i].done <- solveDone{x: xs[i]}
		}
	}
}
