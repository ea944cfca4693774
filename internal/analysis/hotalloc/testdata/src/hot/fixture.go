// Package hot exercises hotalloc's call-graph reach: //gesp:hotpath
// roots whose whole transitive call closure must be allocation-free,
// with blame paths through static calls, interface dispatch, closures,
// and externals.
package hot

import (
	"math"
	"strconv"

	"hutil"
)

//gesp:hotpath
func Planted(s []int, v int) []int {
	return hutil.Grow(s, v) // want `allocation reachable from //gesp:hotpath function hot\.Planted: hot\.Planted → hutil\.Grow \(call at fixture\.go:\d+\): append at hutil\.go:\d+`
}

//gesp:hotpath
func Deep(s []int) []int {
	return hutil.Mid(s) // want `hot\.Deep → hutil\.Mid \(call at fixture\.go:\d+\) → hutil\.Grow \(call at hutil\.go:\d+\): append at hutil\.go:\d+`
}

// Clean stays silent: Sum is allocation-free all the way down.
//
//gesp:hotpath
func Clean(s []int) int {
	return hutil.Sum(s)
}

type sizer interface{ size() int }

type fixed struct{}

func (fixed) size() int { return 4 }

type growing struct{ buf []int }

func (g *growing) size() int {
	g.buf = append(g.buf, 1)
	return len(g.buf)
}

// Sizes dispatches through an interface; CHA blames the one
// implementation that allocates.
//
//gesp:hotpath
func Sizes(ss []sizer) int {
	t := 0
	for _, s := range ss {
		t += s.size() // want `hot\.Sizes → hot\.\(\*growing\)\.size \(call at fixture\.go:\d+\): append at fixture\.go:\d+`
	}
	return t
}

// Closured passes an allocating closure into a higher-order helper:
// the blame path runs through the dynamic dispatch inside Apply. The
// literal and the append written inside it are direct sites of the
// root as well.
//
//gesp:hotpath
func Closured(s []int) {
	hutil.Apply(func(x int) { // want `hot\.Closured → hutil\.Apply \(call at fixture\.go:\d+\) → hot\.Closured\$1 \(call at hutil\.go:\d+\): append at fixture\.go:\d+` `function literal allocates a closure inside //gesp:hotpath function Closured`
		s = append(s, x) // want `append allocates inside //gesp:hotpath function Closured`
	})
}

// Stringify calls outside the program: assumed to allocate.
//
//gesp:hotpath
func Stringify(v int) string {
	return strconv.Itoa(v) // want `hot\.Stringify → strconv\.Itoa \(call at fixture\.go:\d+\): calls strconv\.Itoa \(outside the program; assumed to allocate\)`
}

// Norm calls an allowlisted external (math): silent.
//
//gesp:hotpath
func Norm(x float64) float64 {
	return math.Abs(x)
}

// ColdPath waives the call with a reason: silent.
//
//gesp:hotpath
func ColdPath(s []int) []int {
	return hutil.Grow(s, 9) //gesp:allocok error path only, runs at most once per solve
}

// BareWaiver waives without saying why: the waiver holds but is itself
// reported.
//
//gesp:hotpath
func BareWaiver(s []int) []int {
	//gesp:allocok
	return hutil.Grow(s, 9) // want `//gesp:allocok without justification`
}

// Boxes returns a scalar through an interface result: boxing allocates.
//
//gesp:hotpath
func Boxes(v float64) any {
	return v // want `float64 boxed into interface result inside //gesp:hotpath function hot\.Boxes`
}

func consume(v any) { _ = v }

// BoxParam passes a scalar to an interface parameter: boxing allocates
// at the call site even though consume itself is clean.
//
//gesp:hotpath
func BoxParam(v int) {
	consume(v) // want `int boxed into interface parameter inside //gesp:hotpath function hot\.BoxParam`
}

// Unannotated is not a hot path: no verdict even though it allocates.
func Unannotated(s []int) []int { return hutil.Grow(s, 1) }
