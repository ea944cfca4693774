// Package faultsim (a scoped name) exercises detclock-ip: transitive
// wall-clock and rand taint entering deterministic code, the sanctioned
// //gesp:wallclock backstop mechanism, and waiver justification.
package faultsim

import (
	"time"

	"clockutil"
)

// Deterministic stays silent: Pure is clean all the way down.
func Deterministic(x int) int { return clockutil.Pure(x) }

func Leaky() int64 {
	return clockutil.Stamp() // want `nondeterminism reaches deterministic function faultsim\.Leaky: faultsim\.Leaky → clockutil\.Stamp \(call at fixture\.go:\d+\) → time\.Now \(call at clockutil\.go:\d+\): calls time\.Now \(host wall clock\)`
}

func UsesJitter() int {
	return clockutil.Jitter() // want `faultsim\.UsesJitter → clockutil\.Jitter \(call at fixture\.go:\d+\) → math/rand\.Intn \(call at clockutil\.go:\d+\): calls rand\.Intn \(globally-seeded, nondeterministic\)`
}

// UsesSeeded stays silent: explicitly-seeded generators and their
// methods are deterministic.
func UsesSeeded() int {
	return clockutil.Seeded(42).Intn(10)
}

// Direct stays silent *here*: the intraprocedural detclock already
// reports this exact site.
func Direct() time.Time { return time.Now() }

// Backstop intentionally arms a host timer to catch simulator wedges;
// wall time never feeds the virtual clock.
//
//gesp:wallclock
func Backstop() { time.Sleep(time.Millisecond) }

func UsesBackstop() {
	Backstop() // want `faultsim\.UsesBackstop → faultsim\.Backstop \(call at fixture\.go:\d+\): calls //gesp:wallclock function faultsim\.Backstop`
}

// WaivedBackstop stays silent: the call-site waiver carries a reason.
func WaivedBackstop() {
	Backstop() //gesp:wallclock supervised shutdown path, wall time never feeds the virtual clock
}

func BareWaived() {
	//gesp:wallclock
	Backstop() // want `//gesp:wallclock waiver without justification`
}

//gesp:wallclock
func BareAnnotated() { // want `//gesp:wallclock on faultsim\.BareAnnotated without justification`
	time.Sleep(1)
}
