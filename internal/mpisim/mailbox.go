package mpisim

// mailbox is one rank's incoming message store. Only one rank runs at a
// time (see World.Run), so it needs no lock.
//
// Messages wait in one ring per source, in send order. A take leaves a
// hole instead of moving the messages behind it, and the ring's start
// advances past holes; once a ring has grown to its traffic's depth, a
// send allocates nothing. RecvAny's candidates, the first message of
// every (source, tag) FIFO, are kept in a min-heap ordered by (arrival,
// tagKey), so its choice costs no scan over the sources. The heap is
// built on the mailbox's first RecvAny and kept current from then on,
// so a rank that only ever Recvs by (source, tag) never pays for it.
type mailbox struct {
	from []queue // from[src] holds src's undelivered messages
	n    int     // messages queued over all sources
	// Once indexed: heads is the min-heap of the FIFOs' first messages,
	// and queued[bucket(key)] counts the queued messages whose (src,
	// tag) key falls in that bucket — a zero proves a message is alone
	// in its FIFO without a scan of its source's ring. An entry of heads
	// whose message a Recv took is stale and is dropped when it
	// surfaces.
	indexed bool
	heads   []head
	queued  []int32
}

// queue is one source's undelivered messages, in a ring allocated on
// the source's first message (most of a large world's P² sources never
// send to a given rank).
type queue struct {
	*ring
	// lastSeq is the idempotent-delivery watermark. Sequence numbers
	// count per (src, dst) and a source's puts happen in sequence order,
	// so a message at or below the watermark is a duplicate delivery and
	// is discarded on arrival (ack-free dedup).
	lastSeq int64
}

// ring holds messages of the logical positions lo..hi-1, counted along
// the source's sends, at position&(len(buf)-1) of buf, whose length is
// a power of two; a taken message leaves a hole (tag -1) until every
// message before it is taken too.
type ring struct {
	buf    []message
	lo, hi int
}

// head is a FIFO's entry in the heap: its first message's arrival,
// tagKey, logical position in the source's queue and sequence number.
type head struct {
	arrival float64
	key     int
	pos     int
	seq     int64
}

// An indexed mailbox counts its queued messages in 1<<bucketBits
// buckets of their (src, tag) key's Fibonacci hash.
const bucketBits = 8

func bucket(key int) int { return int(uint64(key) * 0x9E3779B97F4A7C15 >> (64 - bucketBits)) }

func newMailbox(p int) mailbox { return mailbox{from: make([]queue, p)} }

func (q *ring) at(pos int) *message { return &q.buf[pos&(len(q.buf)-1)] }

// put enqueues m, discarding a duplicate delivery. It reports whether m
// was discarded.
func (mb *mailbox) put(m message) (dup bool) {
	q := &mb.from[m.src]
	if m.seq <= q.lastSeq {
		return true
	}
	q.lastSeq = m.seq
	if q.ring == nil {
		q.ring = new(ring)
	}
	if q.hi-q.lo == len(q.buf) {
		q.grow()
	}
	pos := q.hi
	*q.at(pos) = m
	q.hi++
	mb.n++
	if mb.indexed {
		mb.index(m.src, pos)
	}
	return false
}

// index counts the message at pos of src's queue and, when it is the
// first of its (src, tag), puts it among the heads.
func (mb *mailbox) index(src, pos int) {
	q := &mb.from[src]
	m := q.at(pos)
	key := tagKey(src, m.tag)
	b := bucket(key)
	if mb.queued[b] == 0 || q.find(m.tag) == pos {
		mb.push(head{m.arrival, key, pos, m.seq})
	}
	mb.queued[b]++
}

// grow doubles the ring; every message keeps its logical position.
func (q *ring) grow() {
	old := q.buf
	q.buf = make([]message, max(2, 2*len(old)))
	for pos := q.lo; pos < q.hi; pos++ {
		*q.at(pos) = old[pos&(len(old)-1)]
	}
}

// find returns the logical position of the first queued tag message, or
// -1.
func (q *ring) find(tag int) int {
	if q == nil {
		return -1
	}
	return q.findFrom(q.lo, tag)
}

func (q *ring) findFrom(pos, tag int) int {
	for ; pos < q.hi; pos++ {
		if q.at(pos).tag == tag {
			return pos
		}
	}
	return -1
}

// next returns the source and logical position of the message RecvAny
// delivers next: the earliest virtual arrival among the (src, tag) FIFO
// heads, ties broken by the lower (src, tag) key, so the choice is a
// function of the queued messages alone; pos is -1 when nothing is
// queued.
func (mb *mailbox) next() (src, pos int) {
	if !mb.indexed {
		mb.indexed = true
		mb.queued = make([]int32, 1<<bucketBits)
		for s := range mb.from {
			q := mb.from[s].ring
			if q == nil {
				continue
			}
			for p := q.lo; p < q.hi; p++ {
				if q.at(p).tag >= 0 {
					mb.index(s, p)
				}
			}
		}
	}
	for len(mb.heads) > 0 {
		h := &mb.heads[0]
		src, q := h.key>>20, &mb.from[h.key>>20]
		if h.pos >= q.lo && h.pos < q.hi && q.at(h.pos).seq == h.seq {
			return src, h.pos
		}
		mb.pop() // stale: a Recv took it
	}
	return 0, -1
}

// take dequeues the message at logical position pos of src's queue,
// which must be the first of its tag.
func (mb *mailbox) take(src, pos int) message {
	q := &mb.from[src]
	s := q.at(pos)
	m := *s
	*s = message{tag: -1} // a hole, holding no payload
	mb.n--
	if mb.indexed {
		key := tagKey(src, m.tag)
		if len(mb.heads) > 0 && mb.heads[0].key == key && mb.heads[0].seq == m.seq {
			mb.pop()
		}
		b := bucket(key)
		if mb.queued[b]--; mb.queued[b] > 0 {
			if nx := q.findFrom(pos+1, m.tag); nx >= 0 {
				nm := q.at(nx)
				mb.push(head{nm.arrival, key, nx, nm.seq})
			}
		}
	}
	for q.lo < q.hi && q.at(q.lo).tag < 0 {
		q.lo++
	}
	if q.lo == q.hi {
		q.lo, q.hi = 0, 0
	}
	return m
}

// before reports whether heap entry a is delivered ahead of entry b.
func (a *head) before(b *head) bool {
	// The arrival tie-break must be exact: equal virtual arrivals are
	// common (same-size messages) and fall through to the key order,
	// which is what makes the dequeue deterministic.
	//gesp:floateq
	return a.arrival < b.arrival || (a.arrival == b.arrival && a.key < b.key)
}

func (mb *mailbox) push(h head) {
	hs := append(mb.heads, h)
	i := len(hs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h.before(&hs[p]) {
			break
		}
		hs[i] = hs[p]
		i = p
	}
	hs[i] = h
	mb.heads = hs
}

// pop removes the heap's top.
func (mb *mailbox) pop() {
	hs := mb.heads[:len(mb.heads)-1]
	if len(hs) == 0 {
		mb.heads = hs
		return
	}
	h := mb.heads[len(hs)]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(hs) {
			break
		}
		if c+1 < len(hs) && hs[c+1].before(&hs[c]) {
			c++
		}
		if !hs[c].before(&h) {
			break
		}
		hs[i] = hs[c]
		i = c
	}
	hs[i] = h
	mb.heads = hs
}
