package dist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gesp/internal/matgen"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// pinnedSystem is one of the two pinned matrices: a 2-D convection–
// diffusion mesh (thin fill) or a 3-D one (fat fill), made diagonally
// dominant so natural order factors without pivoting trouble.
func pinnedSystem(t *testing.T, name string) (*sparse.CSC, *symbolic.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var a *sparse.CSC
	if name == "mesh" {
		a = matgen.ConvectionDiffusion2D(20, 20, 1.5, 0.5, rng)
	} else {
		a = matgen.ConvectionDiffusion3D(8, 8, 4, 1, 1, 1, 1, rng)
	}
	a = makeDominant(a)
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 12})
	if err != nil {
		t.Fatal(err)
	}
	return a, sym
}

// TestSimulatedNumbersPinned holds the simulated machine to numbers
// recorded before the rank-local plans and the per-source mailbox: the
// factor phase's virtual time (exact bits), traffic, load balance and
// communication fraction, and the solve phase's traffic, on a mesh and
// a fill matrix at P = 4, 16 and 64, with the paper's two optimisations
// on and off. The solve phase's virtual time and communication fraction
// (exact bits) were recorded once the scheduler chose RecvAny's order in
// virtual time. The simulator's bookkeeping may change how fast the
// host produces these numbers, never the numbers.
func TestSimulatedNumbersPinned(t *testing.T) {
	type pin struct {
		simTime, commFrac, balance uint64 // factor phase, math.Float64bits
		msgs, bytes                int64  // factor phase
		solveMsgs, solveBytes      int64
	}
	type solvePin struct{ simTime, commFrac uint64 } // math.Float64bits
	// {factor SimTime, CommFraction, LoadBalance bits; factor msgs,
	// bytes; solve msgs, bytes}
	want := map[string]pin{
		"mesh/P=4/tuned=true":   {0x3fa31166daaa8730, 0x3fefd98d9ab57f1f, 0x3feefbc5556f2647, 15216, 252152, 1520, 12640},
		"mesh/P=16/tuned=true":  {0x3fa87bd6d2e99790, 0x3feff883aea2ce3f, 0x3fea05cd440e0f55, 45614, 746824, 4472, 36864},
		"mesh/P=64/tuned=true":  {0x3fafde02bd401401, 0x3feffe8febc229ce, 0x3fe01eee5154010d, 106138, 1727112, 10328, 84928},
		"mesh/P=4/tuned=false":  {0x3fa322dc74219a47, 0x3fefd9b0aeaab321, 0x3feefbc5556f2647, 15216, 252152, 1520, 12640},
		"mesh/P=16/tuned=false": {0x3fa880afbdc84ce3, 0x3feff88529bd176e, 0x3fea05cd440e0f55, 45636, 751336, 4472, 36864},
		"mesh/P=64/tuned=false": {0x3faff28e95382e7d, 0x3feffe90d87ace8c, 0x3fe01eee5154010d, 106428, 1748936, 10328, 84928},
		"fill/P=4/tuned=true":   {0x3f9e7e2b6267ba7a, 0x3fefb9c99c901ba2, 0x3fedfbd916203d16, 13030, 230832, 900, 8032},
		"fill/P=16/tuned=true":  {0x3fa25d0c7a49eab5, 0x3feff16d27594975, 0x3fe98fecdb0586de, 39048, 676376, 2676, 23376},
		"fill/P=64/tuned=true":  {0x3fa59e8c17e8b3b7, 0x3feffce7c10a38e9, 0x3fdd6852111bb1bc, 90964, 1545240, 6036, 52176},
		"fill/P=4/tuned=false":  {0x3f9eb658117bde8f, 0x3fefba4a08c36f66, 0x3fedfbd916203d16, 13030, 230832, 900, 8032},
		"fill/P=16/tuned=false": {0x3fa263e68de447a5, 0x3feff17295649c5b, 0x3fe98fecdb0586de, 39078, 684912, 2676, 23376},
		"fill/P=64/tuned=false": {0x3fa5a9a555648b99, 0x3feffce956efda77, 0x3fdd6852111bb1bc, 91150, 1587760, 6036, 52176},
	}
	// {solve SimTime, CommFraction bits}
	wantSolve := map[string]solvePin{
		"mesh/P=4/tuned=true":   {0x3fa3825ed294c8e5, 0x3feffc43b12738e3},
		"mesh/P=16/tuned=true":  {0x3fa55927554b376b, 0x3fefff25848b0083},
		"mesh/P=64/tuned=true":  {0x3fa644a681afc370, 0x3fefffcba2c664ed},
		"mesh/P=4/tuned=false":  {0x3fa3825ed294c90e, 0x3feffc43b12738ca},
		"mesh/P=16/tuned=false": {0x3fa55927554b376e, 0x3fefff25848b007e},
		"mesh/P=64/tuned=false": {0x3fa644a681afc37e, 0x3fefffcba2c664f7},
		"fill/P=4/tuned=true":   {0x3f97213ba20e0ade, 0x3feffa06f2eebc2b},
		"fill/P=16/tuned=true":  {0x3f99614a515821f6, 0x3feffea3a10cde33},
		"fill/P=64/tuned=true":  {0x3f9d78e59ebdee00, 0x3fefffb50004d892},
		"fill/P=4/tuned=false":  {0x3f97213ba20e0adb, 0x3feffa06f2eebc2a},
		"fill/P=16/tuned=false": {0x3f99614a515821f6, 0x3feffea3a10cde33},
		"fill/P=64/tuned=false": {0x3f9d78e59ebdee20, 0x3fefffb50004d8a5},
	}
	for _, name := range []string{"mesh", "fill"} {
		a, sym := pinnedSystem(t, name)
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1 + float64(i%7)
		}
		for _, tuned := range []bool{true, false} {
			for _, p := range []int{4, 16, 64} {
				key := fmt.Sprintf("%s/P=%d/tuned=%v", name, p, tuned)
				res, err := Solve(a, BuildStructure(sym), b, Options{Procs: p, Pipeline: tuned, EDAGPrune: tuned, ReplaceTinyPivot: true})
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				got := pin{
					math.Float64bits(res.Factor.SimTime), math.Float64bits(res.Factor.CommFraction), math.Float64bits(res.Factor.LoadBalance),
					res.Factor.Messages, res.Factor.Volume, res.Solve.Messages, res.Solve.Volume,
				}
				if w := want[key]; got != w {
					t.Errorf("%s: got %+v, pinned %+v (factor sim time %g, pinned %g)", key, got, w,
						res.Factor.SimTime, math.Float64frombits(w.simTime))
				}
				gotSolve := solvePin{math.Float64bits(res.Solve.SimTime), math.Float64bits(res.Solve.CommFraction)}
				if w := wantSolve[key]; gotSolve != w {
					t.Errorf("%s: solve got {%#x, %#x}, pinned {%#x, %#x} (solve sim time %g, pinned %g)", key,
						gotSolve.simTime, gotSolve.commFrac, w.simTime, w.commFrac,
						res.Solve.SimTime, math.Float64frombits(w.simTime))
				}
			}
		}
	}
}

// TestSolveBitReproducible reruns the distributed solve 20 times at
// P = 16 and 64 on both pinned systems and requires the solution X and
// the solve phase's virtual time to come out bit for bit the same every
// time: RecvAny's order, and with it the order partial sums are added
// in, is the virtual machine's choice, not the host's. The runs share
// one Structure, as a core.Solver's DistSolve calls do. Under -short or
// the race detector it reruns three times.
func TestSolveBitReproducible(t *testing.T) {
	runs := 20
	if testing.Short() || raceEnabled {
		runs = 3
	}
	for _, name := range []string{"mesh", "fill"} {
		a, sym := pinnedSystem(t, name)
		st := BuildStructure(sym)
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1 + float64(i%7)
		}
		for _, p := range []int{16, 64} {
			opts := Options{Procs: p, Pipeline: true, EDAGPrune: true, ReplaceTinyPivot: true}
			var first *Result
			for run := 0; run < runs; run++ {
				res, err := Solve(a, st, b, opts)
				if err != nil {
					t.Fatalf("%s/P=%d: %v", name, p, err)
				}
				if first == nil {
					first = res
					continue
				}
				if math.Float64bits(res.Solve.SimTime) != math.Float64bits(first.Solve.SimTime) {
					t.Fatalf("%s/P=%d run %d: solve sim time %g, first run %g", name, p, run, res.Solve.SimTime, first.Solve.SimTime)
				}
				for i := range res.X {
					if math.Float64bits(res.X[i]) != math.Float64bits(first.X[i]) {
						t.Fatalf("%s/P=%d run %d: X[%d] = %v, first run %v", name, p, run, i, res.X[i], first.X[i])
					}
				}
			}
		}
	}
}
