package dist

import (
	"math"
	"math/rand"
	"testing"

	"gesp/internal/lu"
	"gesp/internal/mpisim"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// blockedFactors runs the serial blocked engine and gathers its blocks
// into column-format factors, tiny-pivot count included.
func blockedFactors(a *sparse.CSC, sym *symbolic.Result, opts lu.Options) (*lu.Factors, error) {
	g, tiny, err := FactorizeBlocked(a, sym, opts)
	if err != nil {
		return nil, err
	}
	f := g.Factors(a)
	f.TinyPivots = tiny
	return f, nil
}

func TestSupernodalMatchesColumnFactorization(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 10; trial++ {
		a, sym := prepared(t, 41+int64(trial), 60+rng.Intn(100), 0.06, 8)
		col, err := lu.Factorize(a, sym, lu.Options{ReplaceTinyPivot: true})
		if err != nil {
			t.Fatal(err)
		}
		blk, err := blockedFactors(a, sym, lu.Options{ReplaceTinyPivot: true})
		if err != nil {
			t.Fatal(err)
		}
		scale := a.MaxAbs()
		for q := range col.LVal {
			if d := math.Abs(col.LVal[q] - blk.LVal[q]); d > 1e-10*scale {
				t.Fatalf("trial %d: L diverges by %g at %d", trial, d, q)
			}
		}
		for p := range col.UVal {
			if d := math.Abs(col.UVal[p] - blk.UVal[p]); d > 1e-10*scale {
				t.Fatalf("trial %d: U diverges by %g at %d", trial, d, p)
			}
		}
	}
}

func TestSupernodalSolves(t *testing.T) {
	a, sym := prepared(t, 43, 150, 0.05, 8)
	f, err := blockedFactors(a, sym, lu.Options{ReplaceTinyPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.Rows)
	for i := range want {
		want[i] = float64(i%9) - 4
	}
	b := make([]float64, a.Rows)
	a.MatVec(b, want)
	f.Solve(b)
	if e := sparse.RelErrInf(b, want); e > 1e-9 {
		t.Fatalf("blocked factors solve error %g", e)
	}
}

func TestSupernodalZeroPivot(t *testing.T) {
	tr := sparse.NewTriplet(2, 2)
	tr.Append(0, 1, 1)
	tr.Append(1, 0, 1)
	tr.Append(0, 0, 0)
	tr.Append(1, 1, 0)
	a := tr.ToCSC()
	sym, _ := symbolic.Factorize(a, symbolic.Options{})
	if _, err := blockedFactors(a, sym, lu.Options{}); err == nil {
		t.Error("zero pivot accepted without replacement")
	}
	f, err := blockedFactors(a, sym, lu.Options{ReplaceTinyPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if f.TinyPivots == 0 {
		t.Error("tiny pivots not counted")
	}
}

// relaxedSystem is a random system analysed with relaxed (amalgamated)
// supernodes, whose symbolic pattern pads beyond the block skeleton.
func relaxedSystem(t *testing.T) (*sparse.CSC, *symbolic.Result) {
	t.Helper()
	a, _ := prepared(t, 23, 100, 0.05, 10)
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 10, Relax: 4})
	if err != nil {
		t.Fatal(err)
	}
	return a, sym
}

// TestFactorsIndependentOfLayout is the paper's §3 premise as a test:
// with static pivoting the factors do not depend on the number of
// processes, the grid shape, EDAG pruning or look-ahead — every
// distributed run assembles to the bits of the serial blocked engine.
func TestFactorsIndependentOfLayout(t *testing.T) {
	strict, strictSym, _, _ := ftSystem(t, 3, 160)
	relaxed, relaxedSym := relaxedSystem(t)
	for _, sys := range []struct {
		name string
		a    *sparse.CSC
		sym  *symbolic.Result
	}{{"strict", strict, strictSym}, {"relaxed", relaxed, relaxedSym}} {
		ref, _, err := FactorizeBlocked(sys.a, sys.sym, lu.Options{ReplaceTinyPivot: true})
		if err != nil {
			t.Fatal(err)
		}
		want := ref.Factors(sys.a).Fingerprint()
		b := make([]float64, sys.a.Rows)
		for i := range b {
			b[i] = 1
		}
		for _, shape := range [][2]int{{1, 1}, {2, 2}, {1, 4}, {4, 1}, {2, 3}, {3, 5}} {
			grid := mpisim.Grid{PRow: shape[0], PCol: shape[1]}
			for _, prune := range []bool{false, true} {
				for _, pipeline := range []bool{false, true} {
					o, err := run(job{a: sys.a, sym: sys.sym, bs: [][]float64{b}, opts: Options{
						Procs: grid.PRow * grid.PCol, Grid: &grid, EDAGPrune: prune, Pipeline: pipeline, ReplaceTinyPivot: true,
					}})
					if err != nil {
						t.Fatal(err)
					}
					if got := mergeGrids(o.grids).Factors(sys.a).Fingerprint(); got != want {
						t.Errorf("%s %v prune=%v pipeline=%v: fingerprint %016x, serial blocked engine %016x",
							sys.name, grid, prune, pipeline, got, want)
					}
				}
			}
		}
	}
}
