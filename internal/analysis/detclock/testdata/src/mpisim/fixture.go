// Package mpisim is a detclock fixture: its final path segment places
// it inside the analyzer's deterministic-simulation scope.
package mpisim

import (
	"math/rand"
	"time"
)

var sink float64

func virtualStep() {
	t := time.Now() // want `time\.Now depends on the host wall clock`
	sink += float64(t.Unix())
	sink += rand.Float64()             // want `rand\.Float64 uses the globally-seeded generator`
	rand.Shuffle(3, func(i, j int) {}) // want `rand\.Shuffle uses the globally-seeded generator`
}

func elapsed(t0 time.Time) {
	sink += time.Since(t0).Seconds() // want `time\.Since depends on the host wall clock`
}

// hostWatchdog builds failure detection on host timers: forbidden — a
// watchdog deadline must be expressed in virtual time or it fires at a
// machine-speed-dependent point in the simulation.
func hostWatchdog(d time.Duration, stop chan struct{}) {
	time.Sleep(d) // want `time\.Sleep depends on the host wall clock`
	select {
	case <-time.After(d): // want `time\.After depends on the host wall clock`
	case <-stop:
	}
	tm := time.NewTimer(d) // want `time\.NewTimer depends on the host wall clock`
	tm.Stop()
	tk := time.NewTicker(d) // want `time\.NewTicker depends on the host wall clock`
	tk.Stop()
	time.AfterFunc(d, func() {}) // want `time\.AfterFunc depends on the host wall clock`
}

// wallBackstop arms a real timer that only fires if the deterministic
// watchdog itself is broken: an allowed, annotated escape hatch.
//
//gesp:wallclock
func wallBackstop(d time.Duration) func() {
	t := time.AfterFunc(d, func() { panic("backstop") })
	return func() { t.Stop() }
}

// seededOK uses an explicitly seeded generator: deterministic, allowed.
func seededOK() {
	rng := rand.New(rand.NewSource(42))
	sink += rng.Float64()
	sink += rng.NormFloat64()
}

// wallTimer intentionally measures host time for reporting only.
//
//gesp:wallclock
func wallTimer() time.Duration {
	t0 := time.Now()
	return time.Since(t0)
}

// lineExemptTimer and lineExempt waive their call sites without saying
// why: each waiver holds but is itself reported.
func lineExemptTimer(stop chan struct{}) {
	//gesp:wallclock
	<-time.After(time.Millisecond) // want `//gesp:wallclock waiver without justification`
}

func lineExempt() {
	//gesp:wallclock
	t0 := time.Now() // want `//gesp:wallclock waiver without justification`
	_ = t0
}

// durationsOK exercises time-package identifiers that are not clock
// reads and must not be flagged.
func durationsOK(d time.Duration) float64 {
	return d.Seconds() + float64(time.Second)
}
