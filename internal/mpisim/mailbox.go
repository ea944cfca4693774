package mpisim

import "sync"

// mailbox is one rank's incoming message store with its own lock, so
// traffic between disjoint rank pairs never contends (the original
// whole-world mutex serialized a 512-rank simulation onto one core).
//
// Messages wait in one FIFO queue per source, held by value: once a
// queue has grown to its traffic's depth its slots are reused, so a
// send allocates nothing. A receive removes its message in place; the
// queues are short, the messages a rank has not yet asked for. Blocking lives in the Rank receive methods,
// which coordinate with the watchdog supervisor; the mailbox records
// what its owner waits for, so a put wakes the owner only when the new
// message can satisfy that wait.
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	//gesp:guardedby:mu
	from []queue // from[src] holds src's undelivered messages in send order
	//gesp:guardedby:mu
	n int // messages queued over all sources
	//gesp:guardedby:mu
	want int // what the owner waits on: tagKey(src, tag), wantAny or wantNone
	//gesp:guardedby:mu
	seen []int // RecvAny's take: the tags already passed in one queue
}

const (
	wantNone = -1
	wantAny  = -2
)

// queue is one source's undelivered messages, in send order.
type queue struct {
	msgs []message
	// lastSeq is the idempotent-delivery watermark. Sequence numbers
	// count per (src, dst) and a source's puts happen in sequence order,
	// so a message at or below the watermark is a duplicate delivery and
	// is discarded on arrival (ack-free dedup).
	lastSeq int64
}

func newMailbox(p int) *mailbox {
	mb := &mailbox{from: make([]queue, p), want: wantNone}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

// put enqueues m, discarding a duplicate delivery, and wakes the owner
// if m satisfies what it waits on. It reports whether m was discarded.
func (mb *mailbox) put(m message) (dup bool) {
	mb.mu.Lock()
	q := &mb.from[m.src]
	if m.seq <= q.lastSeq {
		mb.mu.Unlock()
		return true
	}
	q.lastSeq = m.seq
	q.msgs = append(q.msgs, m)
	mb.n++
	wake := mb.want == wantAny || mb.want == tagKey(m.src, m.tag)
	mb.mu.Unlock()
	if wake {
		mb.cond.Signal()
	}
	return false
}

// take dequeues the first (src, tag) message, or with src < 0 the
// message RecvAny delivers: the earliest virtual arrival among the
// (src, tag) FIFO heads — in each source queue, the first message of
// every tag — ties broken by the lower (src, tag) key, so the choice is
// a function of the queued messages alone. Caller holds mb.mu.
//
//gesp:holds:mb.mu
func (mb *mailbox) take(src, tag int) (message, bool) {
	pos := -1
	if src >= 0 {
		pos = mb.from[src].find(tag)
	} else if mb.n > 0 {
		bestKey, bestArrival := 0, 0.0
		for s := range mb.from {
			q := &mb.from[s]
			seen := mb.seen[:0]
		scan:
			for p := range q.msgs {
				m := &q.msgs[p]
				if pos >= 0 && m.floor > bestArrival {
					break // this and every later message from s arrive after the best
				}
				for _, t := range seen {
					if t == m.tag {
						continue scan // behind the head of its (src, tag) FIFO
					}
				}
				seen = append(seen, m.tag)
				key := tagKey(s, m.tag)
				// The arrival tie-break must be exact: equal virtual arrivals
				// are common (same-size messages) and fall through to the key
				// order, which is what makes the dequeue deterministic.
				//gesp:floateq
				if pos < 0 || m.arrival < bestArrival || (m.arrival == bestArrival && key < bestKey) {
					src, pos, bestKey, bestArrival = s, p, key, m.arrival
				}
			}
			mb.seen = seen
		}
	}
	if pos < 0 {
		return message{}, false
	}
	mb.n--
	return mb.from[src].remove(pos), true
}

// ready reports whether take(src, tag) would find a message. Caller
// holds mb.mu.
//
//gesp:holds:mb.mu
func (mb *mailbox) ready(src, tag int) bool {
	if src < 0 {
		return mb.n > 0
	}
	return mb.from[src].find(tag) >= 0
}

// queued reports whether a (src, tag) message is waiting — any message
// when src < 0.
func (mb *mailbox) queued(src, tag int) bool {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.ready(src, tag)
}

// find returns the position of the first tag message, or -1.
func (q *queue) find(tag int) int {
	for p := range q.msgs {
		if q.msgs[p].tag == tag {
			return p
		}
	}
	return -1
}

// remove dequeues the message at position p, keeping the others in order.
func (q *queue) remove(p int) message {
	m, last := q.msgs[p], len(q.msgs)-1
	copy(q.msgs[p:], q.msgs[p+1:])
	q.msgs[last] = message{}
	q.msgs = q.msgs[:last]
	return m
}
