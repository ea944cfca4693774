package mpisim

import (
	"math/rand"
	"runtime"
	"testing"
)

// scanMailbox is the linear-scan mailbox the heap of FIFO heads
// replaced, kept as the oracle of RecvAny's rule: one queue per source
// in send order, and head scans every source's queue for the first
// message of each tag, cutting a source's scan once its floor (send
// clock plus latency, never above the arrival and never decreasing
// along a source's sends) passes the best arrival found.
type scanMailbox struct {
	from    [][]scanMsg
	lastSeq []int64
	n       int
	seen    []int
}

type scanMsg struct {
	m     message
	floor float64
}

func (mb *scanMailbox) put(m message, floor float64) (dup bool) {
	if m.seq <= mb.lastSeq[m.src] {
		return true
	}
	mb.lastSeq[m.src] = m.seq
	mb.from[m.src] = append(mb.from[m.src], scanMsg{m, floor})
	mb.n++
	return false
}

func (mb *scanMailbox) head() (src, pos int) {
	pos = -1
	if mb.n == 0 {
		return src, pos
	}
	bestKey, bestArrival := 0, 0.0
	for s, q := range mb.from {
		seen := mb.seen[:0]
	scan:
		for p := range q {
			m := &q[p]
			if pos >= 0 && m.floor > bestArrival {
				break
			}
			for _, t := range seen {
				if t == m.m.tag {
					continue scan
				}
			}
			seen = append(seen, m.m.tag)
			key := tagKey(s, m.m.tag)
			//gesp:floateq
			if pos < 0 || m.m.arrival < bestArrival || (m.m.arrival == bestArrival && key < bestKey) {
				src, pos, bestKey, bestArrival = s, p, key, m.m.arrival
			}
		}
		mb.seen = seen
	}
	return src, pos
}

func (mb *scanMailbox) find(src, tag int) int {
	for p, m := range mb.from[src] {
		if m.m.tag == tag {
			return p
		}
	}
	return -1
}

func (mb *scanMailbox) take(src, pos int) message {
	q := mb.from[src]
	m := q[pos].m
	mb.from[src] = append(q[:pos], q[pos+1:]...)
	mb.n--
	return m
}

// TestMailboxMatchesScanOracle drives the mailbox and the linear-scan
// oracle through the same seeded random traffic — 2 to 64 sources,
// several tags per source, arrivals that tie bit for bit, floors below
// arrivals from injected delays, and duplicate deliveries — taking
// messages both the way RecvAny does (the head) and the way Recv does
// (the first of a (src, tag)). Each trial opens with a stretch of
// Recv-only traffic, as a factorization's, before the first RecvAny
// builds the heap of heads. From then on, after every put and take,
// both must name the same next message, identified by its source and
// sequence number.
func TestMailboxMatchesScanOracle(t *testing.T) {
	const latency, costPerByte = 1.0 / 64, 1.0 / 4096
	for trial := 0; trial < 200; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		p := 2 + rng.Intn(63)
		recvOnly := rng.Intn(300) // steps before the first RecvAny
		mb := newMailbox(p)
		or := &scanMailbox{from: make([][]scanMsg, p), lastSeq: make([]int64, p)}
		clock := make([]float64, p)
		seq := make([]int64, p)
		var sent []scanMsg // every message put, for stale re-deliveries
		check := func(step int, what string) {
			t.Helper()
			if step < recvOnly {
				if or.n != mb.n {
					t.Fatalf("trial %d step %d after %s: oracle holds %d messages, mailbox %d", trial, step, what, or.n, mb.n)
				}
				return
			}
			os, opos := or.head()
			src, pos := mb.next()
			if (opos < 0) != (pos < 0) {
				t.Fatalf("trial %d step %d after %s: oracle head pos %d, mailbox pos %d", trial, step, what, opos, pos)
			}
			if pos >= 0 {
				om, m := or.from[os][opos].m, mb.from[src].at(pos)
				if om.src != m.src || om.seq != m.seq {
					t.Fatalf("trial %d step %d after %s: oracle names (src %d, seq %d), mailbox (src %d, seq %d)",
						trial, step, what, om.src, om.seq, m.src, m.seq)
				}
			}
			if or.n != mb.n {
				t.Fatalf("trial %d step %d after %s: oracle holds %d messages, mailbox %d", trial, step, what, or.n, mb.n)
			}
		}
		for step := 0; step < 600; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || or.n == 0: // a send
				src := rng.Intn(p)
				clock[src] += float64(rng.Intn(3)) / 1024
				seq[src]++
				floor := clock[src] + latency
				arrival := floor + float64(8*(1+rng.Intn(3)))*costPerByte
				if rng.Intn(6) == 0 {
					arrival += float64(1+rng.Intn(4)) / 256 // injected delay
				}
				m := message{src: src, tag: rng.Intn(4), seq: seq[src], arrival: arrival}
				sm := scanMsg{m, floor}
				sent = append(sent, sm)
				if od, d := or.put(m, floor), mb.put(m); od != d {
					t.Fatalf("trial %d step %d: oracle dup %v, mailbox dup %v", trial, step, od, d)
				}
				check(step, "put")
				if rng.Intn(5) == 0 { // duplicate delivery, now or of an older message
					if rng.Intn(2) == 0 {
						sm = sent[rng.Intn(len(sent))]
					}
					if od, d := or.put(sm.m, sm.floor), mb.put(sm.m); !od || !d {
						t.Fatalf("trial %d step %d: a re-delivery was not discarded (oracle %v, mailbox %v)", trial, step, od, d)
					}
					check(step, "duplicate put")
				}
			case op < 8 && step >= recvOnly: // RecvAny
				os, opos := or.head()
				om, m := or.take(os, opos), mb.take(mb.next())
				if om.src != m.src || om.seq != m.seq {
					t.Fatalf("trial %d step %d: RecvAny took (src %d, seq %d), oracle (src %d, seq %d)", trial, step, m.src, m.seq, om.src, om.seq)
				}
				check(step, "RecvAny take")
			default: // Recv(src, tag) of a queued pair
				var src int
				for src = rng.Intn(p); len(or.from[src]) == 0; src = (src + 1) % p {
				}
				tag := or.from[src][rng.Intn(len(or.from[src]))].m.tag
				pos := mb.from[src].find(tag)
				if pos < 0 {
					t.Fatalf("trial %d step %d: mailbox holds no (src %d, tag %d) message", trial, step, src, tag)
				}
				om, m := or.take(src, or.find(src, tag)), mb.take(src, pos)
				if om.src != m.src || om.seq != m.seq {
					t.Fatalf("trial %d step %d: Recv took (src %d, seq %d), oracle (src %d, seq %d)", trial, step, m.src, m.seq, om.src, om.seq)
				}
				check(step, "Recv take")
			}
		}
	}
}

// TestSendRecvAnyZeroAlloc proves a steady message exchange allocates
// nothing inside the simulator: 16 ranks each send one message to every
// other rank per round and take them with RecvAny. After warm-up rounds
// have grown the mailboxes' slabs and heaps, ten more rounds between two
// barriers allocate nothing. Payloads are pointers, which box without
// allocating. Not parallel, so no other test allocates meanwhile.
func TestSendRecvAnyZeroAlloc(t *testing.T) {
	const p, warm, rounds = 16, 3, 10
	w := NewWorld(p, T3E900())
	payload := new([]float64)
	var before, after runtime.MemStats
	w.Run(func(r *Rank) {
		round := func(k int) {
			for d := 1; d < p; d++ {
				r.Send((r.ID()+d)%p, k, payload, 64)
			}
			for d := 1; d < p; d++ {
				if _, _, got := r.RecvAny(); got != any(payload) {
					t.Errorf("rank %d received %v", r.ID(), got)
				}
			}
		}
		for k := 0; k < warm; k++ {
			round(k)
		}
		r.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&before)
		}
		for k := warm; k < warm+rounds; k++ {
			round(k)
		}
		r.Barrier()
		if r.ID() == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	if f := w.Failure(); f != nil {
		t.Fatalf("world failed: %+v", f)
	}
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("%d allocations over %d steady rounds of %d ranks, want 0", n, rounds, p)
	}
}
