package mpisim

// mailbox is one rank's incoming message store. Only one rank runs at a
// time (see World.Run), so it needs no lock.
//
// Messages wait in one FIFO queue per source, held by value: once a
// queue has grown to its traffic's depth its slots are reused, so a
// send allocates nothing. A receive removes its message in place; the
// queues are short, the messages a rank has not yet asked for.
type mailbox struct {
	from []queue // from[src] holds src's undelivered messages in send order
	n    int     // messages queued over all sources
	seen []int   // head's scratch: the tags already passed in one queue
}

// queue is one source's undelivered messages, in send order.
type queue struct {
	msgs []message
	// lastSeq is the idempotent-delivery watermark. Sequence numbers
	// count per (src, dst) and a source's puts happen in sequence order,
	// so a message at or below the watermark is a duplicate delivery and
	// is discarded on arrival (ack-free dedup).
	lastSeq int64
}

// put enqueues m, discarding a duplicate delivery. It reports whether m
// was discarded.
func (mb *mailbox) put(m message) (dup bool) {
	q := &mb.from[m.src]
	if m.seq <= q.lastSeq {
		return true
	}
	q.lastSeq = m.seq
	q.msgs = append(q.msgs, m)
	mb.n++
	return false
}

// head finds the message RecvAny delivers next: the earliest virtual
// arrival among the (src, tag) FIFO heads — in each source queue, the
// first message of every tag — ties broken by the lower (src, tag) key,
// so the choice is a function of the queued messages alone. It returns
// the message's source and position in that source's queue, or pos -1
// when nothing is queued.
func (mb *mailbox) head() (src, pos int) {
	pos = -1
	if mb.n == 0 {
		return src, pos
	}
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
	return src, pos
}

// take dequeues the message at position pos of src's queue, keeping the
// others in order.
func (mb *mailbox) take(src, pos int) message {
	q := &mb.from[src]
	m, last := q.msgs[pos], len(q.msgs)-1
	copy(q.msgs[pos:], q.msgs[pos+1:])
	q.msgs[last] = message{}
	q.msgs = q.msgs[:last]
	mb.n--
	return m
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
