package lu_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"gesp/internal/core"
	"gesp/internal/faultsim"
	"gesp/internal/lu"
	"gesp/internal/matgen"
	"gesp/internal/ordering"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// workerCounts are the schedules every system is factored on: a prime,
// and more workers than a small tree has subtrees.
var workerCounts = []int{2, 3, 4, 8, 32}

// symbolicGrid is the structures every system is analysed into: single
// columns and capped supernodes, with and without relaxation.
var symbolicGrid = []symbolic.Options{{MaxSuper: 1}, {MaxSuper: 1, Relax: 4}, {MaxSuper: 24}, {MaxSuper: 24, Relax: 4}}

// amd orders a symmetrically by approximate minimum degree on A+Aᵀ, the
// default analysis: its elimination trees are the bushy-below,
// chain-on-top shape the schedule is built for.
func amd(a *sparse.CSC) *sparse.CSC {
	return a.PermuteSym(ordering.Order(a, ordering.MinDegAPlusAT))
}

// matchParallel factors a in the structure sym serially and on every
// worker count, and demands the serial outcome from each: the same bits,
// or the same *ZeroPivotError.
func matchParallel(t *testing.T, label string, a *sparse.CSC, sym *symbolic.Result, opts lu.Options) {
	t.Helper()
	want, wantErr := lu.Factorize(a, sym, opts)
	for _, w := range workerCounts {
		sc := lu.NewSchedule(a, sym, w)
		got, err := sc.Factorize(a, opts)
		l := fmt.Sprintf("%s workers=%d", label, w)
		if wantErr != nil || err != nil {
			var ge, we *lu.ZeroPivotError
			if !errors.As(err, &ge) || !errors.As(wantErr, &we) || *ge != *we {
				t.Fatalf("%s: error %v, serial %v", l, err, wantErr)
			}
			continue
		}
		lu.SameFactors(t, l, got, want)
	}
}

func symbolicOf(t *testing.T, a *sparse.CSC, so symbolic.Options) *symbolic.Result {
	t.Helper()
	sym, err := symbolic.Factorize(a, so)
	if err != nil {
		t.Fatal(err)
	}
	return sym
}

func tridiagonal(n int) *sparse.CSC {
	tr := sparse.NewTriplet(n, n)
	for j := 0; j < n; j++ {
		tr.Append(j, j, 4)
		if j > 0 {
			tr.Append(j-1, j, -1)
			tr.Append(j, j-1, -1.5)
		}
	}
	return tr.ToCSC()
}

func diagonal(n int) *sparse.CSC {
	tr := sparse.NewTriplet(n, n)
	for j := 0; j < n; j++ {
		tr.Append(j, j, float64(j%7)-3) // a zero every seventh column
	}
	return tr.ToCSC()
}

// TestParallelMatchesSerial: the scalar engine on its static schedule
// reproduces lu.Factorize bit for bit — factor values, column maxima,
// pivot growth, fingerprint, tiny pivots and their PivotMods — for every
// worker count, supernode cap and relaxation, on one reduced system per
// benchmark class, faultsim's stress systems, a pure chain (a single
// subtree), a diagonal matrix (n singleton subtrees) and n = 0 and 1.
func TestParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(25))
	in := faultsim.New(25)
	systems := []struct {
		name string
		a    *sparse.CSC
	}{
		{"mesh", amd(matgen.EnsureFullRank(matgen.ConvectionDiffusion2D(16, 16, 1.5, 0.5, rng), rng))},
		{"fill", amd(matgen.EnsureFullRank(matgen.ConvectionDiffusion3D(6, 6, 4, 1, 1, 1, 1, rng), rng))},
		{"circuit", amd(matgen.EnsureFullRank(matgen.HarmonicBalance(24, 8, 4, rng), rng))},
		{"well-conditioned", amd(in.WellConditioned(150, 0.04))},
		{"near-singular", in.NearSingular(120, 1e-12)},
		{"ill-conditioned", in.IllConditioned(100, 1e10)},
		{"chain", tridiagonal(200)},
		{"diagonal", diagonal(60)},
		{"n=1", diagonal(1)},
		{"n=0", sparse.NewTriplet(0, 0).ToCSC()},
	}
	for _, s := range systems {
		for _, so := range symbolicGrid {
			sym := symbolicOf(t, s.a, so)
			label := fmt.Sprintf("%s MaxSuper=%d Relax=%d", s.name, so.MaxSuper, so.Relax)
			matchParallel(t, label, s.a, sym, lu.Options{ReplaceTinyPivot: true})
			matchParallel(t, label+" aggressive", s.a, sym, lu.Options{ReplaceTinyPivot: true, Aggressive: true})
		}
	}
}

// TestParallelMatchesSerialOnTestbed runs testbed matrices through the
// full GESP preprocessing (as core analyses them, at each supernode cap
// and relaxation) and demands the serial bits from every schedule.
func TestParallelMatchesSerialOnTestbed(t *testing.T) {
	t.Parallel()
	names := []string{"AF23560", "MEMPLUS", "SHERMAN4", "TWOTONE", "WANG4", "EX11"}
	scale := 0.12
	if testing.Short() {
		names = []string{"SHERMAN4", "MEMPLUS"}
		scale = 0.06
	}
	for _, name := range names {
		m, ok := matgen.Lookup(name)
		if !ok {
			t.Fatalf("unknown testbed matrix %s", name)
		}
		a := m.Generate(scale)
		for _, so := range symbolicGrid {
			opts := core.DefaultOptions()
			opts.MaxSuper, opts.Relax = so.MaxSuper, so.Relax
			s, err := core.NewAnalysis(a, opts)
			if err != nil {
				t.Fatalf("%s: analysis: %v", name, err)
			}
			label := fmt.Sprintf("%s MaxSuper=%d Relax=%d", name, so.MaxSuper, so.Relax)
			matchParallel(t, label, s.PermutedMatrix(), s.Symbolic(), lu.Options{ReplaceTinyPivot: true})
		}
	}
}

// TestParallelSmallRace is sized for `go test -race -count=N`: random
// systems factored on two and four workers, repeatedly, so the
// detector sees the completion flags order every read of another
// worker's columns.
func TestParallelSmallRace(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 4; trial++ {
		n := 120 + 40*trial
		tr := sparse.NewTriplet(n, n)
		for j := 0; j < n; j++ {
			tr.Append(j, j, 4+rng.Float64())
			for i := 0; i < n; i++ {
				if i != j && rng.Float64() < 0.03 {
					tr.Append(i, j, rng.NormFloat64())
				}
			}
		}
		a := amd(tr.ToCSC())
		sym := symbolicOf(t, a, symbolic.Options{MaxSuper: 6})
		opts := lu.Options{ReplaceTinyPivot: true}
		want, err := lu.Factorize(a, sym, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 4} {
			sc := lu.NewSchedule(a, sym, w)
			for rep := 0; rep < 3; rep++ {
				got, err := sc.Factorize(a, opts)
				if err != nil {
					t.Fatalf("trial %d workers=%d: %v", trial, w, err)
				}
				lu.SameFactors(t, fmt.Sprintf("trial %d workers=%d", trial, w), got, want)
			}
		}
	}
}

// zeroPivotAt makes column c's pivot exactly zero without touching the
// pattern (so neither the structure nor the schedule changes): A(c,c)
// and every A(c,k), k < c, become explicit zeros, so L(c,:) is zero and
// the pivot is A(c,c) itself.
func zeroPivotAt(a *sparse.CSC, c int) {
	for j := 0; j <= c; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowInd[p] == c {
				a.Val[p] = 0
			}
		}
	}
}

// twoMeshes is a block-diagonal pair of AMD-ordered meshes, the larger
// first: two workers split the larger one's separators into the top and
// keep the smaller whole, so the top lies below a subtree.
func twoMeshes(rng *rand.Rand) *sparse.CSC {
	var blocks []*sparse.CSC
	n := 0
	for _, k := range []int{14, 7} {
		m := amd(matgen.EnsureFullRank(matgen.ConvectionDiffusion2D(k, k, 1, 0.5, rng), rng))
		blocks, n = append(blocks, m), n+m.Rows
	}
	tr := sparse.NewTriplet(n, n)
	off := 0
	for _, m := range blocks {
		for j := 0; j < m.Cols; j++ {
			for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
				tr.Append(off+m.RowInd[p], off+j, m.Val[p])
			}
		}
		off += m.Cols
	}
	return tr.ToCSC()
}

// TestParallelZeroPivotMatchesSerial: with replacement off, exact zero
// pivots planted in a subtree, in the top, and in both (either one the
// lower) fail every schedule with the serial engine's error — the lowest
// failing column's — and never hang it.
func TestParallelZeroPivotMatchesSerial(t *testing.T) {
	t.Parallel()
	base := twoMeshes(rand.New(rand.NewSource(26)))
	sym := symbolicOf(t, base, symbolic.Options{})
	sc := lu.NewSchedule(base, sym, 2)
	if len(sc.Top) == 0 || len(sc.Own[0]) == 0 || len(sc.Own[1]) == 0 {
		t.Fatalf("want a top and two workers' subtrees: %d top columns, %d and %d own", len(sc.Top), len(sc.Own[0]), len(sc.Own[1]))
	}
	top := sc.Top[len(sc.Top)/2]
	low, high := sc.Own[0][0], sc.Own[0][len(sc.Own[0])-1]
	if sc.Own[1][len(sc.Own[1])-1] > high {
		low, high = sc.Own[1][0], sc.Own[1][len(sc.Own[1])-1]
	}
	if low > top || high < top {
		t.Fatalf("want subtree columns on both sides of top column %d: %d..%d", top, low, high)
	}
	for _, cols := range [][]int{{low}, {top}, {high}, {low, top}, {top, high}} {
		a := base.Clone()
		for _, c := range cols {
			zeroPivotAt(a, c)
		}
		want, err := lu.Factorize(a, sym, lu.Options{})
		var zp *lu.ZeroPivotError
		if want != nil || !errors.As(err, &zp) || zp.Col != cols[0] {
			t.Fatalf("zeros at %v: serial engine gives %v, want a zero pivot at %d", cols, err, cols[0])
		}
		matchParallel(t, fmt.Sprintf("zeros at %v", cols), a, sym, lu.Options{})
	}
}
