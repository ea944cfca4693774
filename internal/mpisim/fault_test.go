package mpisim

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// Tests for the chaos layer and the watchdog. Every plan arms the wall
// backstop so a scheduler bug fails the test instead of hanging it (go
// test's own -timeout is the second backstop).

const testBackstop = 10 * time.Second

func planWith(f func(p *FaultPlan)) *FaultPlan {
	p := &FaultPlan{Seed: 1, WallBackstop: testBackstop}
	f(p)
	return p
}

// Test-program collectives over Send/Recv: a flat broadcast from root,
// and a sum gathered to rank 0 in rank order and broadcast back.
const tagBcast, tagReduce = 100, 101

func bcast(r *Rank, root int, v any) any {
	if r.ID() != root {
		return r.Recv(root, tagBcast)
	}
	for dst := 0; dst < r.Size(); dst++ {
		if dst != root {
			r.Send(dst, tagBcast, v, 8)
		}
	}
	return v
}

func allreduceSum(r *Rank, v float64) float64 {
	if r.ID() != 0 {
		r.Send(0, tagReduce, v, 8)
		return bcast(r, 0, nil).(float64)
	}
	for src := 1; src < r.Size(); src++ {
		v += r.Recv(src, tagReduce).(float64)
	}
	return bcast(r, 0, v).(float64)
}

// checkUnwound checks that every rank but skip (the dead or finished
// one) was charged the watchdog's detection time: each blocked, then
// unwound at DetectedAt.
func checkUnwound(t *testing.T, w *World, f *FailureReport, skip int) {
	t.Helper()
	for id, s := range w.Snapshots() {
		if id != skip && s.Clock != f.DetectedAt {
			t.Errorf("rank %d clock %g, want DetectedAt %g", id, s.Clock, f.DetectedAt)
		}
	}
	if f.DetectedAt <= f.FaultTime {
		t.Errorf("DetectedAt %g not after FaultTime %g", f.DetectedAt, f.FaultTime)
	}
}

// checkWaits checks the report's waits against want, in rank order.
func checkWaits(t *testing.T, f *FailureReport, want ...WaitInfo) {
	t.Helper()
	got := make([]WaitInfo, len(f.Waits))
	for i, wi := range f.Waits {
		wi.Clock = 0
		got[i] = wi
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("waits %+v, want %+v", got, want)
	}
}

// A dead rank must fail Barrier with ErrRankDead, not hang it.
func TestDeadRankFailsBarrier(t *testing.T) {
	w := NewWorld(4, T3E900())
	w.InstallFaults(planWith(func(p *FaultPlan) {
		p.RankFaults = []RankFault{{Rank: 2, At: 0}}
	}))
	passed := make([]bool, 4)
	w.Run(func(r *Rank) {
		r.Compute(100) // rank 2 dies here
		r.Barrier()
		passed[r.ID()] = true
	})
	f := w.Failure()
	if f == nil {
		t.Fatal("no failure report for a barrier with a dead participant")
	}
	if !errors.Is(f.Err, ErrRankDead) || f.Kind != "kill" || f.Rank != 2 {
		t.Fatalf("report = %+v, want ErrRankDead kill of rank 2", f)
	}
	if fmt.Sprint(passed) != "[false false false false]" {
		t.Fatalf("ranks past the barrier %v, want none", passed)
	}
	checkUnwound(t, w, f, 2)
	b := WaitInfo{Op: "barrier", Src: -1, Tag: -1}
	b0, b1, b3 := b, b, b
	b1.Rank, b3.Rank = 1, 3
	checkWaits(t, f, b0, b1, b3)
	if len(f.LastRecv) != 4 {
		t.Fatalf("last-recv %d entries, want 4", len(f.LastRecv))
	}
}

// A dead rank must fail an allreduce by unwinding the survivors, not
// hanging them.
func TestDeadRankFailsAllreduce(t *testing.T) {
	w := NewWorld(4, T3E900())
	w.InstallFaults(planWith(func(p *FaultPlan) {
		p.RankFaults = []RankFault{{Rank: 1, At: 0}}
	}))
	finished := make([]bool, 4)
	w.Run(func(r *Rank) {
		r.Compute(10)
		allreduceSum(r, 1.0)
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
	checkUnwound(t, w, f, 1)
	checkWaits(t, f, WaitInfo{Rank: 0, Op: "recv", Src: 1, Tag: tagReduce},
		WaitInfo{Rank: 2, Op: "recv", Src: 0, Tag: tagBcast}, WaitInfo{Rank: 3, Op: "recv", Src: 0, Tag: tagBcast})
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
		bcast(r, 0, 42)
	})
	f := w.Failure()
	if f == nil || !errors.Is(f.Err, ErrRankDead) || f.Kind != "kill" || f.Rank != 0 {
		t.Fatalf("report = %+v, want kill of rank 0", f)
	}
	checkUnwound(t, w, f, 0)
	checkWaits(t, f, WaitInfo{Rank: 1, Op: "recv", Src: 0, Tag: tagBcast},
		WaitInfo{Rank: 2, Op: "recv", Src: 0, Tag: tagBcast}, WaitInfo{Rank: 3, Op: "recv", Src: 0, Tag: tagBcast})
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
		allreduceSum(r, float64(r.ID()))
	})
	f := w.Failure()
	if f == nil || !errors.Is(f.Err, ErrRankDead) || f.Kind != "stall" || f.Rank != 0 {
		t.Fatalf("report = %+v, want stall-death of rank 0", f)
	}
	checkUnwound(t, w, f, 0)
	checkWaits(t, f, WaitInfo{Rank: 1, Op: "recv", Src: 0, Tag: tagBcast},
		WaitInfo{Rank: 2, Op: "recv", Src: 0, Tag: tagBcast}, WaitInfo{Rank: 3, Op: "recv", Src: 0, Tag: tagBcast})
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
	received := false
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, "lost", 64)
		} else {
			r.Recv(0, 3)
			received = true
		}
	})
	f := w.Failure()
	if f == nil || !errors.Is(f.Err, ErrTimeout) || f.Kind != "wedge" || f.Rank != -1 {
		t.Fatalf("report = %+v, want ErrTimeout wedge with no implicated rank", f)
	}
	if received {
		t.Fatal("the receive of a dropped message completed")
	}
	if c := w.Snapshots()[1].Clock; c != f.DetectedAt || f.DetectedAt != DefaultWatchdogDeadline {
		t.Fatalf("receiver clock %g, DetectedAt %g; want both the watchdog deadline", c, f.DetectedAt)
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
	received := false
	w.Run(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, "lost", 64) // the whole drop budget
			r.Send(1, 4, "kept", 64)
			r.Send(1, 5, "kept", 64)
		} else {
			r.Recv(0, 3)
			received = true
		}
	})
	f := w.Failure()
	if f == nil || !errors.Is(f.Err, ErrTimeout) || f.Kind != "wedge" || f.Rank != -1 {
		t.Fatalf("report = %+v, want ErrTimeout wedge with no implicated rank", f)
	}
	if received {
		t.Fatal("the receive of a dropped message completed")
	}
	checkUnwound(t, w, f, 0) // rank 0 finished its sends
	if q := &w.mail[1].from[0]; q.find(4) < 0 || q.find(5) < 0 {
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
			allreduceSum(r, float64(r.ID()))
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

// An armed watchdog stays silent on a healthy world: a world with an
// empty fault plan runs the same program to the same clocks as one
// without.
func TestWatchdogQuietWhenHealthy(t *testing.T) {
	run := func(plan *FaultPlan) []Snapshot {
		w := NewWorld(2, T3E900())
		if plan != nil {
			w.InstallFaults(plan)
		}
		w.Run(func(r *Rank) {
			if r.ID() == 0 {
				r.Compute(500)
				r.Send(1, 11, "payload", 32)
			} else if got := r.Recv(0, 11); got != "payload" {
				t.Errorf("received %v", got)
			}
		})
		if f := w.Failure(); f != nil {
			t.Fatalf("healthy run reported a failure: %+v", f)
		}
		return w.Snapshots()
	}
	if with, without := run(planWith(func(*FaultPlan) {})), run(nil); fmt.Sprint(with) != fmt.Sprint(without) {
		t.Fatalf("clocks under an empty plan %+v, without one %+v", with, without)
	}
}
