package mpisim

import (
	"fmt"
	"math"
	"testing"
)

func TestPingPongClockSemantics(t *testing.T) {
	model := CostModel{Latency: 10e-6, CostPerByte: 1e-9, CostPerFlop: 1e-9, SendOverhead: 1e-6}
	w := NewWorld(2, model)
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(1000) // 1µs
			r.Send(1, 7, "hello", 1000)
		case 1:
			got := r.Recv(0, 7)
			if got.(string) != "hello" {
				t.Errorf("payload = %v", got)
			}
		}
	})
	// Rank 1's clock: sender clock at send = 1µs(compute) + 1µs(overhead)
	// = 2µs; arrival = 2µs + 10µs + 1µs(bytes) = 13µs.
	r1 := w.ranks[1]
	want := 13e-6
	if math.Abs(r1.Clock()-want) > 1e-12 {
		t.Errorf("receiver clock = %g, want %g", r1.Clock(), want)
	}
	if math.Abs(r1.CommTime()-want) > 1e-12 {
		t.Errorf("receiver comm time = %g, want %g (it only waited)", r1.CommTime(), want)
	}
	if w.ranks[0].MsgsSent() != 1 || w.ranks[0].BytesSent() != 1000 {
		t.Error("sender counters wrong")
	}
}

func TestFIFOOrderPerSourceTag(t *testing.T) {
	w := NewWorld(2, T3E900())
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 100; i++ {
				r.Send(1, 3, i, 8)
			}
		} else {
			for i := 0; i < 100; i++ {
				if got := r.Recv(0, 3).(int); got != i {
					t.Errorf("message %d arrived out of order: %d", i, got)
					return
				}
			}
		}
	})
}

func TestRecvBlocksUntilSend(t *testing.T) {
	w := NewWorld(2, T3E900())
	sent := false
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 2) // rank 1 is blocked in Recv(0, 1) from here on
			for i := 0; i < 1000; i++ {
				r.Compute(1)
			}
			sent = true
			r.Send(1, 1, 42, 8)
		} else {
			r.Send(0, 2, nil, 8)
			v := r.Recv(0, 1).(int)
			if v != 42 {
				t.Errorf("got %d", v)
			}
			if !sent {
				t.Error("receive completed before send")
			}
		}
	})
}

func TestDeterministicSimulatedTime(t *testing.T) {
	// The same communication pattern must give the same virtual time on
	// every run regardless of real scheduling.
	run := func() float64 {
		w := NewWorld(4, T3E900())
		w.Run(func(r *Rank) {
			n := r.Size()
			// Ring: everyone sends right, receives from left, 50 rounds.
			for round := 0; round < 50; round++ {
				r.Compute(int64(1000 * (r.ID() + 1)))
				r.Send((r.ID()+1)%n, round, r.ID(), 800)
				r.Recv((r.ID()+n-1)%n, round)
			}
		})
		return w.GatherStats().Time
	}
	t1 := run()
	for i := 0; i < 5; i++ {
		if t2 := run(); t2 != t1 {
			t.Fatalf("simulated time varies across runs: %g vs %g", t1, t2)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	w := NewWorld(3, T3E900())
	w.Run(func(r *Rank) {
		r.Compute(int64(1e6 * (r.ID() + 1))) // ranks at different times
		r.Barrier()
		want := 3e6*T3E900().CostPerFlop + T3E900().Latency
		if math.Abs(r.Clock()-want) > 1e-9 {
			t.Errorf("rank %d clock after barrier = %g, want %g", r.ID(), r.Clock(), want)
		}
	})
}

// RecvAny's choice is a function of the queued messages alone: every
// message is queued before the first RecvAny (senders send, then all
// ranks meet at a barrier), and they come back in virtual-arrival order,
// equal arrivals by the lower (src, tag) key, and never ahead of an
// earlier message on their own (src, tag).
func TestRecvAnyPicksEarliestArrival(t *testing.T) {
	model := CostModel{Latency: 10e-6, CostPerByte: 1e-9, CostPerFlop: 1e-9, SendOverhead: 1e-6}
	w := NewWorld(4, model)
	var got []string
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Compute(100000) // a late sender: arrives at 111.008µs
			r.Send(3, 5, "late", 8)
		case 1, 2:
			// Ranks 1 and 2 send mirror images, so their arrivals tie
			// bit for bit: 111µs, 12.008µs and 13.008µs.
			tagBig, tagTie := 6, 7
			if r.ID() == 2 {
				tagBig, tagTie = 8, 4
			}
			name := func(s string) string { return s + string(rune('0'+r.ID())) }
			r.Send(3, tagBig, name("big"), 100000)
			r.Send(3, tagBig, name("small"), 8) // earlier arrival, but FIFO behind big
			r.Send(3, tagTie, name("tie"), 8)
		}
		r.Barrier()
		if r.ID() == 3 {
			for i := 0; i < 7; i++ {
				_, _, payload := r.RecvAny()
				got = append(got, payload.(string))
			}
		}
	})
	want := []string{"tie1", "tie2", "big1", "small1", "big2", "small2", "late"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("RecvAny order %v, want %v", got, want)
	}
}

// A Recv waiting on (0, A) is not queued by (0, B) traffic, completes
// when its message arrives behind 1,000 others, and the (0, B) messages
// still come out in order afterwards.
func TestRecvBehindOtherTags(t *testing.T) {
	w := NewWorld(2, T3E900())
	w.InstallFaults(planWith(func(*FaultPlan) {}))
	var got []int
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Recv(1, 3) // rank 1 waits on (0, 1) from here on
			for i := 0; i < 1000; i++ {
				r.Send(1, 2, i, 8)
			}
			if rk := w.ranks[1]; rk.wait.kind != waitRecv || rk.slot >= 0 {
				t.Errorf("other-tag traffic queued rank 1 (wait %v, slot %d)", rk.wait.kind, rk.slot)
			}
			r.Send(1, 1, -1, 8)
			return
		}
		r.Send(0, 3, nil, 8)
		got = append(got, r.Recv(0, 1).(int))
		for i := 0; i < 1000; i++ {
			got = append(got, r.Recv(0, 2).(int))
		}
	})
	if f := w.Failure(); f != nil {
		t.Fatalf("world failed: %+v", f)
	}
	for i, v := range got {
		if v != i-1 {
			t.Fatalf("receive %d returned %d, want %d", i, v, i-1)
		}
	}
	if len(got) != 1001 {
		t.Fatalf("%d receives completed, want 1001", len(got))
	}
}

// A put of any tag wakes a RecvAny suspended on an empty mailbox.
func TestRecvAnyWakesOnAnyTag(t *testing.T) {
	w := NewWorld(3, T3E900())
	w.InstallFaults(planWith(func(*FaultPlan) {}))
	var tags []int
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0, 1:
			r.Recv(2, 1) // rank 2 is in RecvAny from here on
			if rk := w.ranks[2]; rk.wait.kind != waitRecvAny {
				t.Errorf("rank %d sends while rank 2 waits on %v, want recvany", r.ID(), rk.wait.kind)
			}
			r.Compute(int64(1000 * r.ID())) // rank 1's message arrives second
			r.Send(2, 11+r.ID(), nil, 8)
		case 2:
			r.Send(0, 1, nil, 8)
			r.Send(1, 1, nil, 8)
			for i := 0; i < 2; i++ {
				_, tag, _ := r.RecvAny()
				tags = append(tags, tag)
			}
		}
	})
	if f := w.Failure(); f != nil {
		t.Fatalf("world failed: %+v", f)
	}
	if fmt.Sprint(tags) != "[11 12]" {
		t.Fatalf("RecvAny returned tags %v, want [11 12]", tags)
	}
}

// RecvAny follows virtual time, not the order the host ran the sends in.
// Rank 0 sends a large message first; rank 1, released later, computes
// and then sends a small one that arrives earlier. When rank 2 first
// asks, only the large message is queued, yet the small one comes first.
func TestRecvAnyVirtualOrderBeatsHostOrder(t *testing.T) {
	model := CostModel{Latency: 10e-6, CostPerByte: 1e-9, CostPerFlop: 1e-9, SendOverhead: 1e-6}
	w := NewWorld(3, model)
	var got []string
	w.Run(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(2, 1, "large", 1000000) // arrives at 1.011 ms
		case 1:
			r.Recv(2, 9)
			r.Compute(100000) // sends at ~0.112 ms
			r.Send(2, 2, "small", 8)
		case 2:
			r.Send(1, 9, nil, 8)
			if n := w.mail[2].n; n != 1 {
				t.Errorf("%d messages queued at the first RecvAny, want only the large one", n)
			}
			for i := 0; i < 2; i++ {
				_, _, payload := r.RecvAny()
				got = append(got, payload.(string))
			}
		}
	})
	if fmt.Sprint(got) != "[small large]" {
		t.Fatalf("RecvAny order %v, want [small large]", got)
	}
	if c := w.ranks[2].Clock(); math.Abs(c-1.011e-3) > 1e-12 {
		t.Errorf("rank 2 clock %g, want the large arrival 1.011 ms", c)
	}
}

func TestGatherStats(t *testing.T) {
	w := NewWorld(4, T3E900())
	w.Run(func(r *Rank) {
		r.Compute(1000000)
		if r.ID() == 0 {
			r.Compute(3000000) // imbalance
		}
		r.Barrier()
	})
	s := w.GatherStats()
	if s.TotalFlops != 7000000 {
		t.Errorf("TotalFlops = %d", s.TotalFlops)
	}
	// B = avg/max = (7e6/4)/4e6 = 0.4375.
	if math.Abs(s.LoadBalance-0.4375) > 1e-12 {
		t.Errorf("LoadBalance = %g, want 0.4375", s.LoadBalance)
	}
	if s.Time <= 0 || s.Mflops() <= 0 {
		t.Error("time/Mflops not positive")
	}
	if s.CommFraction <= 0 || s.CommFraction >= 1 {
		t.Errorf("CommFraction = %g, want in (0,1) (barrier waits count)", s.CommFraction)
	}
}

func TestGridMath(t *testing.T) {
	g := NewGrid(8)
	if g.PRow*g.PCol != 8 {
		t.Fatalf("grid %v does not cover 8 ranks", g)
	}
	if g.PRow > g.PCol {
		t.Errorf("grid %v not row-minor", g)
	}
	seen := map[int]bool{}
	for pr := 0; pr < g.PRow; pr++ {
		for pc := 0; pc < g.PCol; pc++ {
			rank := g.RankOf(pr, pc)
			if seen[rank] {
				t.Fatalf("rank %d duplicated", rank)
			}
			seen[rank] = true
			gr, gc := g.Coords(rank)
			if gr != pr || gc != pc {
				t.Fatalf("Coords(RankOf(%d,%d)) = (%d,%d)", pr, pc, gr, gc)
			}
		}
	}
	// Block-cyclic ownership: block (I,J) at (I mod PRow, J mod PCol).
	if own := g.OwnerOfBlock(5, 7); own != g.RankOf(5%g.PRow, 7%g.PCol) {
		t.Errorf("OwnerOfBlock = %d", own)
	}
	// Primes give 1×p grids.
	g7 := NewGrid(7)
	if g7.PRow != 1 || g7.PCol != 7 {
		t.Errorf("NewGrid(7) = %v", g7)
	}
	// 512 gives 16x32 (the paper's T3E runs used power-of-two grids).
	g512 := NewGrid(512)
	if g512.PRow != 16 || g512.PCol != 32 {
		t.Errorf("NewGrid(512) = %v, want 16x32", g512)
	}
}

func TestSendToSelfPanics(t *testing.T) {
	w := NewWorld(1, T3E900())
	w.Run(func(r *Rank) {
		defer func() {
			if recover() == nil {
				t.Error("send to self did not panic")
			}
		}()
		r.Send(0, 1, nil, 0)
	})
}
