package mpisim

import (
	"errors"
	"testing"
	"time"
)

// Tests for the chaos layer and the watchdog supervisor. Every plan
// arms the wall backstop so a supervisor bug fails the test instead of
// hanging it (go test's own -timeout is the second backstop).

const testBackstop = 10 * time.Second

func planWith(f func(p *FaultPlan)) *FaultPlan {
	p := &FaultPlan{Seed: 1, WallBackstop: testBackstop}
	f(p)
	return p
}

// A dead rank must fail Barrier with ErrRankDead, not hang it.
func TestDeadRankFailsBarrier(t *testing.T) {
	w := NewWorld(4, T3E900())
	w.InstallFaults(planWith(func(p *FaultPlan) {
		p.RankFaults = []RankFault{{Rank: 2, At: 0}}
	}))
	errs := make([]error, 4)
	w.Run(func(r *Rank) {
		r.Compute(100) // rank 2 dies here
		errs[r.ID()] = r.BarrierTimeout()
	})
	f := w.Failure()
	if f == nil {
		t.Fatal("no failure report for a barrier with a dead participant")
	}
	if !errors.Is(f.Err, ErrRankDead) || f.Kind != "kill" || f.Rank != 2 {
		t.Fatalf("report = %+v, want ErrRankDead kill of rank 2", f)
	}
	if f.DetectedAt <= f.FaultTime {
		t.Fatalf("DetectedAt %g not after FaultTime %g", f.DetectedAt, f.FaultTime)
	}
	for id, err := range errs {
		if id == 2 {
			continue // never reached the barrier
		}
		if !errors.Is(err, ErrRankDead) {
			t.Fatalf("rank %d barrier error = %v, want ErrRankDead", id, err)
		}
	}
	if len(f.Waits) == 0 || len(f.LastRecv) != 4 {
		t.Fatalf("wait graph %d entries, last-recv %d entries; want >0 and 4",
			len(f.Waits), len(f.LastRecv))
	}
}

// A dead rank must fail Allreduce (which uses the legacy panic-on-error
// API) by unwinding the survivors, not hanging them.
func TestDeadRankFailsAllreduce(t *testing.T) {
	w := NewWorld(4, T3E900())
	w.InstallFaults(planWith(func(p *FaultPlan) {
		p.RankFaults = []RankFault{{Rank: 1, At: 0}}
	}))
	finished := make([]bool, 4)
	w.Run(func(r *Rank) {
		r.Compute(10)
		r.AllreduceSum(1.0)
		finished[r.ID()] = true
	})
	f := w.Failure()
	if f == nil || !errors.Is(f.Err, ErrRankDead) || f.Rank != 1 {
		t.Fatalf("report = %+v, want ErrRankDead for rank 1", f)
	}
	for id, ok := range finished {
		if ok {
			t.Fatalf("rank %d finished an allreduce missing a participant", id)
		}
	}
}

// Killing the broadcast root wedges every receiver; the watchdog must
// convert that into a FailureReport.
func TestKillRootFailsBcast(t *testing.T) {
	w := NewWorld(4, T3E900())
	w.InstallFaults(planWith(func(p *FaultPlan) {
		p.RankFaults = []RankFault{{Rank: 0, At: 0}}
	}))
	w.Run(func(r *Rank) {
		r.Compute(1) // root dies before sending
		r.Bcast(0, 42, 8)
	})
	f := w.Failure()
	if f == nil || !errors.Is(f.Err, ErrRankDead) || f.Kind != "kill" || f.Rank != 0 {
		t.Fatalf("report = %+v, want kill of rank 0", f)
	}
}

// Stalling the reduction root past the watchdog deadline counts as
// death and fails the reduce.
func TestStallRootFailsReduce(t *testing.T) {
	w := NewWorld(4, T3E900())
	w.InstallFaults(planWith(func(p *FaultPlan) {
		p.RankFaults = []RankFault{{Rank: 0, At: 0, Stall: 10 * DefaultWatchdogDeadline}}
	}))
	w.Run(func(r *Rank) {
		r.Compute(1)
		r.AllreduceMax(float64(r.ID()))
	})
	f := w.Failure()
	if f == nil || !errors.Is(f.Err, ErrRankDead) || f.Kind != "stall" || f.Rank != 0 {
		t.Fatalf("report = %+v, want stall-death of rank 0", f)
	}
}

// A stall shorter than the watchdog deadline is a survivable hiccup:
// the run completes, the victim's clock absorbs the stall.
func TestTransientStallSurvives(t *testing.T) {
	const stall = DefaultWatchdogDeadline / 2
	w := NewWorld(2, T3E900())
	w.InstallFaults(planWith(func(p *FaultPlan) {
		p.RankFaults = []RankFault{{Rank: 1, At: 0, Stall: stall}}
	}))
	var clock1 float64
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, "x", 100)
		} else {
			r.Recv(0, 7)
			clock1 = r.Clock()
		}
	})
	if f := w.Failure(); f != nil {
		t.Fatalf("transient stall escalated to failure: %+v", f)
	}
	if s := w.GatherStats(); s.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", s.Stalls)
	}
	if clock1 < stall {
		t.Fatalf("stalled rank clock %g does not include the %g stall", clock1, stall)
	}
}

// A dropped message wedges the world with no dead rank: ErrTimeout.
func TestDroppedMessageWedges(t *testing.T) {
	w := NewWorld(2, T3E900())
	w.InstallFaults(planWith(func(p *FaultPlan) {
		p.DropProb = 1
		p.MaxDrops = 1
	}))
	var recvErr error
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, "lost", 64)
		} else {
			_, recvErr = r.RecvTimeout(0, 3)
		}
	})
	f := w.Failure()
	if f == nil || !errors.Is(f.Err, ErrTimeout) || f.Kind != "wedge" || f.Rank != -1 {
		t.Fatalf("report = %+v, want ErrTimeout wedge with no implicated rank", f)
	}
	if !errors.Is(recvErr, ErrTimeout) {
		t.Fatalf("RecvTimeout error = %v, want ErrTimeout", recvErr)
	}
	if s := w.GatherStats(); s.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", s.Dropped)
	}
	// The wait graph names the wedged receive.
	found := false
	for _, wi := range f.Waits {
		if wi.Rank == 1 && wi.Op == "recv" && wi.Src == 0 && wi.Tag == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("wait graph %+v does not name rank 1's recv(0, 3)", f.Waits)
	}
}

// A rank blocked on a dropped message still wedges the world when other
// messages from the same source sit in its mailbox: only a match counts.
func TestDroppedMessageWedgesBehindOtherTags(t *testing.T) {
	w := NewWorld(2, T3E900())
	w.InstallFaults(planWith(func(p *FaultPlan) {
		p.DropProb = 1
		p.MaxDrops = 1
	}))
	var recvErr error
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, "lost", 64) // the whole drop budget
			r.Send(1, 4, "kept", 64)
			r.Send(1, 5, "kept", 64)
		} else {
			_, recvErr = r.RecvTimeout(0, 3)
		}
	})
	f := w.Failure()
	if f == nil || !errors.Is(f.Err, ErrTimeout) || f.Kind != "wedge" || f.Rank != -1 {
		t.Fatalf("report = %+v, want ErrTimeout wedge with no implicated rank", f)
	}
	if !errors.Is(recvErr, ErrTimeout) {
		t.Fatalf("RecvTimeout error = %v, want ErrTimeout", recvErr)
	}
	if !w.mail[1].queued(0, 4) || !w.mail[1].queued(0, 5) {
		t.Fatal("the non-matching messages are not queued at the wedge")
	}
}

// Duplicated sends are discarded by sequence-number dedup: delivery is
// idempotent and FIFO order per (src, tag) is preserved.
func TestDuplicateDelivery(t *testing.T) {
	w := NewWorld(2, T3E900())
	w.InstallFaults(planWith(func(p *FaultPlan) {
		p.DupProb = 1
	}))
	var got []int
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			for i := 0; i < 3; i++ {
				r.Send(1, 5, i, 8)
			}
		} else {
			for i := 0; i < 3; i++ {
				got = append(got, r.Recv(0, 5).(int))
			}
		}
	})
	if f := w.Failure(); f != nil {
		t.Fatalf("duplication caused failure: %+v", f)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("received %v, want [0 1 2]", got)
		}
	}
	s := w.GatherStats()
	if s.Duplicated != 3 || s.Deduped != 3 {
		t.Fatalf("Duplicated=%d Deduped=%d, want 3 and 3", s.Duplicated, s.Deduped)
	}
}

// A rank panic is converted to a FailureReport with the value preserved
// instead of crashing or hanging the world.
func TestPanicBecomesFailureReport(t *testing.T) {
	w := NewWorld(3, T3E900())
	w.InstallFaults(planWith(func(p *FaultPlan) {}))
	w.Run(func(r *Rank) {
		if r.ID() == 2 {
			panic("numerical kernel exploded")
		}
		r.Barrier()
	})
	f := w.Failure()
	if f == nil || f.Kind != "panic" || f.Rank != 2 {
		t.Fatalf("report = %+v, want panic on rank 2", f)
	}
	if f.PanicValue != "numerical kernel exploded" {
		t.Fatalf("PanicValue = %v", f.PanicValue)
	}
}

// Same seed + same plan ⇒ identical simulated times, counters and
// chaos decisions, run after run (exercised under -race by chaostest).
func TestChaosRepeatability(t *testing.T) {
	run := func() (Stats, []float64) {
		w := NewWorld(4, T3E900())
		w.InstallFaults(planWith(func(p *FaultPlan) {
			p.DelayJitter = 5e-5
			p.DupProb = 0.3
			p.RankFaults = []RankFault{{Rank: 3, At: 0, Stall: DefaultWatchdogDeadline / 4}}
		}))
		w.Run(func(r *Rank) {
			for round := 0; round < 5; round++ {
				r.Compute(int64(100 * (r.ID() + 1)))
				next := (r.ID() + 1) % r.Size()
				prev := (r.ID() + r.Size() - 1) % r.Size()
				r.Send(next, 9, r.ID(), 256)
				r.Recv(prev, 9)
				r.Barrier()
			}
			r.AllreduceSum(float64(r.ID()))
		})
		if f := w.Failure(); f != nil {
			t.Fatalf("chaos program failed: %+v", f)
		}
		clocks := make([]float64, 4)
		for i, s := range w.Snapshots() {
			clocks[i] = s.Clock
		}
		return w.GatherStats(), clocks
	}
	s1, c1 := run()
	s2, c2 := run()
	if s1 != s2 {
		t.Fatalf("stats differ across identical chaos runs:\n%+v\n%+v", s1, s2)
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("rank %d clock differs: %g vs %g", i, c1[i], c2[i])
		}
	}
	if s1.Duplicated == 0 || s1.Delayed == 0 || s1.Stalls != 1 {
		t.Fatalf("chaos did not engage: %+v", s1)
	}
}

// The wedge failure is itself deterministic: the same kill produces the
// same detection time and counters every run.
func TestFailureDeterminism(t *testing.T) {
	run := func() (FailureReport, Stats) {
		w := NewWorld(4, T3E900())
		w.InstallFaults(planWith(func(p *FaultPlan) {
			p.RankFaults = []RankFault{{Rank: 1, At: 3e-5}}
		}))
		w.Run(func(r *Rank) {
			for round := 0; round < 4; round++ {
				r.Compute(2000)
				r.Barrier()
			}
		})
		f := w.Failure()
		if f == nil {
			t.Fatal("kill produced no failure")
		}
		return *f, w.GatherStats()
	}
	f1, s1 := run()
	f2, s2 := run()
	if f1.Kind != f2.Kind || f1.Rank != f2.Rank ||
		f1.FaultTime != f2.FaultTime || f1.DetectedAt != f2.DetectedAt {
		t.Fatalf("failure reports differ:\n%+v\n%+v", f1, f2)
	}
	if s1.Messages != s2.Messages || s1.TotalFlops != s2.TotalFlops || s1.Time != s2.Time {
		t.Fatalf("failed-run stats differ:\n%+v\n%+v", s1, s2)
	}
}

// RecvTimeout on a healthy world behaves exactly like Recv.
func TestRecvTimeoutHealthy(t *testing.T) {
	w := NewWorld(2, T3E900())
	var got any
	var err error
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Compute(500)
			r.Send(1, 11, "payload", 32)
		} else {
			got, err = r.RecvTimeout(0, 11)
		}
	})
	if err != nil || got != "payload" {
		t.Fatalf("got %v, %v", got, err)
	}
	if w.Failure() != nil {
		t.Fatal("healthy run reported a failure")
	}
}
