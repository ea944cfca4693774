package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"gesp/internal/serve"
	"gesp/internal/sparse"
)

// fakeTarget answers the n-th solve attempt (from 1) with outcome(n)
// after a short pause; it starts no process and holds no matrix.
type fakeTarget struct {
	attempts atomic.Int64
	outcome  func(n int64) error
}

func (f *fakeTarget) target() target {
	return target{
		submit: func(context.Context, *sparse.CSC) (serve.Handle, error) { return serve.Handle{}, nil },
		solve: func(context.Context, serve.Handle, []float64) ([]float64, error) {
			n := f.attempts.Add(1)
			time.Sleep(100 * time.Microsecond)
			if f.outcome == nil {
				return nil, nil
			}
			return nil, f.outcome(n)
		},
	}
}

func TestRunLoadCountsEveryAttempt(t *testing.T) {
	boom := errors.New("boom")
	outcome := func(n int64) error {
		switch {
		case n%3 == 0:
			return fmt.Errorf("shard 1: %w", serve.ErrOverloaded)
		case n%5 == 0:
			return boom
		}
		return nil
	}
	f := &fakeTarget{outcome: outcome}
	res := runLoad(context.Background(), f.target(), make([]poolSystem, 4), load{workers: 3, window: 20 * time.Millisecond, zipfS: 1.2})

	attempts := f.attempts.Load()
	if attempts == 0 || res.Solves+res.Shed+res.Failed != uint64(attempts) {
		t.Fatalf("solves %d + shed %d + failed %d != %d attempts", res.Solves, res.Shed, res.Failed, attempts)
	}
	var shed, failed uint64
	for n := int64(1); n <= attempts; n++ {
		switch err := outcome(n); {
		case errors.Is(err, serve.ErrOverloaded):
			shed++
		case err != nil:
			failed++
		}
	}
	if res.Shed != shed || res.Failed != failed {
		t.Errorf("shed %d failed %d, want %d and %d", res.Shed, res.Failed, shed, failed)
	}
	if !errors.Is(res.Err, boom) {
		t.Errorf("first failure %v, want boom", res.Err)
	}
	if res.Workers != 3 || res.Systems != 4 {
		t.Errorf("workers %d systems %d, want 3 and 4", res.Workers, res.Systems)
	}
}

func TestRunLoadFaultRunsOnceMidRun(t *testing.T) {
	f := &fakeTarget{}
	var calls int
	var atFault int64
	l := load{workers: 2, window: 40 * time.Millisecond, faultAt: 20 * time.Millisecond}
	l.fault = func() {
		calls++
		atFault = f.attempts.Load()
	}
	res := runLoad(context.Background(), f.target(), make([]poolSystem, 2), l)
	if calls != 1 {
		t.Fatalf("fault ran %d times, want once", calls)
	}
	if atFault == 0 || f.attempts.Load() <= atFault {
		t.Errorf("attempts %d at the fault, %d at the end: the fault must land while workers run", atFault, f.attempts.Load())
	}
	if res.Failed != 0 || res.Shed != 0 {
		t.Errorf("a healthy target failed %d and shed %d", res.Failed, res.Shed)
	}
}

func TestRunLoadThroughputUsesWindow(t *testing.T) {
	// The fault outlasts the window, as HA's failover waits can: the
	// workers stop at the deadline and so does the measured window.
	l := load{workers: 2, window: 20 * time.Millisecond, faultAt: 5 * time.Millisecond}
	l.fault = func() { time.Sleep(60 * time.Millisecond) }
	res := runLoad(context.Background(), (&fakeTarget{}).target(), make([]poolSystem, 2), l)
	if res.Window < l.window || res.Window >= 60*time.Millisecond {
		t.Errorf("window %v, want from %v to well below the 65ms the fault held the driver", res.Window, l.window)
	}
	if want := float64(res.Solves) / res.Window.Seconds(); res.Solves == 0 || res.Throughput != want {
		t.Errorf("throughput %g, want %d solves / %v = %g", res.Throughput, res.Solves, res.Window, want)
	}
}

func TestRunLoadEmptySampleHasZeroPercentiles(t *testing.T) {
	f := &fakeTarget{outcome: func(int64) error { return serve.ErrOverloaded }}
	res := runLoad(context.Background(), f.target(), make([]poolSystem, 1), load{workers: 1, window: 5 * time.Millisecond})
	if res.Solves != 0 || res.Shed == 0 {
		t.Fatalf("solves %d shed %d, want every attempt shed", res.Solves, res.Shed)
	}
	if res.P50 != 0 || res.P95 != 0 || res.P99 != 0 || res.P999 != 0 || res.Throughput != 0 {
		t.Errorf("empty sample: p50 %v p95 %v p99 %v p999 %v throughput %g, want all 0",
			res.P50, res.P95, res.P99, res.P999, res.Throughput)
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples is not 0")
	}
}
