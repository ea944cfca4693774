package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"gesp/internal/faultsim"
	"gesp/internal/lu"
	"gesp/internal/matgen"
	"gesp/internal/sparse"
)

// refactorSystems are the inputs NewWithSymbolic is checked on: the
// benchmark's three generators at small sizes, and AF23560 at scale 1.
func refactorSystems() []struct {
	name string
	a    *sparse.CSC
} {
	rng := rand.New(rand.NewSource(30))
	af, _ := matgen.Lookup("AF23560")
	return []struct {
		name string
		a    *sparse.CSC
	}{
		{"mesh", matgen.EnsureFullRank(matgen.ConvectionDiffusion2D(24, 24, 1.5, 0.5, rng), rng)},
		{"fill", matgen.EnsureFullRank(matgen.ConvectionDiffusion3D(8, 8, 4, 1, 1, 1, 1, rng), rng)},
		{"circuit", matgen.EnsureFullRank(matgen.HarmonicBalance(60, 8, 4, rng), rng)},
		{"AF23560@1", af.Generate(1)},
	}
}

// parentRefactor is the refactorization before the value map, kept as
// the oracle: Clone → ScaleRowsCols(dR, dC) → PermuteRows → PermuteCols,
// then the same numeric factorization on the donor's analysis.
func parentRefactor(t *testing.T, a *sparse.CSC, donor *Solver) *Solver {
	t.Helper()
	s := &Solver{opts: donor.opts, n: donor.n, rowMap: donor.rowMap, colMap: donor.colMap,
		dR: donor.dR, dC: donor.dC, sym: donor.sym, sched: donor.sched}
	s.stats.NnzA, s.stats.ZeroDiagsIn = a.Nnz(), a.ZeroDiagonals()
	work := a.Clone()
	work.ScaleRowsCols(s.dR, s.dC)
	s.ap = work.PermuteRows(s.rowMap).PermuteCols(s.colMap)
	if err := s.factorNumeric(); err != nil {
		t.Fatal(err)
	}
	return s
}

// sameSolver fails unless got and want factored the same matrix to the
// same bits — pattern and values of PermutedMatrix, factor fingerprint,
// PivotMods, growth — and return bitwise the same solutions from Solve
// and SolveBatch.
func sameSolver(t *testing.T, label string, got, want *Solver) {
	t.Helper()
	ga, wa := got.PermutedMatrix(), want.PermutedMatrix()
	if !slices.Equal(ga.ColPtr, wa.ColPtr) || !slices.Equal(ga.RowInd, wa.RowInd) {
		t.Fatalf("%s: factored matrix pattern differs", label)
	}
	if !bitsEqual(ga.Val, wa.Val) {
		t.Fatalf("%s: factored matrix values differ", label)
	}
	gf, wf := got.Factors(), want.Factors()
	if gf.Fingerprint() != wf.Fingerprint() {
		t.Fatalf("%s: fingerprint %x, want %x", label, gf.Fingerprint(), wf.Fingerprint())
	}
	if !slices.EqualFunc(gf.PivotMods, wf.PivotMods, func(g, w lu.PivotMod) bool {
		return g.Col == w.Col && math.Float64bits(g.Old) == math.Float64bits(w.Old) && math.Float64bits(g.New) == math.Float64bits(w.New)
	}) {
		t.Fatalf("%s: PivotMods %v, want %v", label, gf.PivotMods, wf.PivotMods)
	}
	gs, ws := got.Stats(), want.Stats()
	if math.Float64bits(gs.RecipGrowth) != math.Float64bits(ws.RecipGrowth) || gs.ZeroDiagsIn != ws.ZeroDiagsIn || gs.NnzA != ws.NnzA {
		t.Fatalf("%s: stats growth %g, zero diagonals %d, nnz %d; want %g, %d, %d",
			label, gs.RecipGrowth, gs.ZeroDiagsIn, gs.NnzA, ws.RecipGrowth, ws.ZeroDiagsIn, ws.NnzA)
	}
	bs := randomBatch(got, 5, 7)
	gx, err := got.Solve(bs[0])
	if err != nil {
		t.Fatal(err)
	}
	wx, err := want.Solve(bs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(gx, wx) {
		t.Fatalf("%s: Solve differs", label)
	}
	gxs, err := got.SolveBatch(bs)
	if err != nil {
		t.Fatal(err)
	}
	wxs, err := want.SolveBatch(bs)
	if err != nil {
		t.Fatal(err)
	}
	for r := range wxs {
		if !bitsEqual(gxs[r], wxs[r]) {
			t.Fatalf("%s: SolveBatch vector %d differs", label, r)
		}
	}
}

// refactorOptions are the settings every system is refactored under:
// serial, on two workers, and with equilibration and the row
// permutation off, whose maps are the identity.
func refactorOptions() map[string]Options {
	serial, par, plain := DefaultOptions(), DefaultOptions(), DefaultOptions()
	par.Workers = 2
	plain.Equilibrate, plain.RowPermute = false, false
	return map[string]Options{"workers=0": serial, "workers=2": par, "no equil/rowperm": plain}
}

// TestNewWithSymbolicMatchesParentRecipe: the value map gives bit for
// bit what cloning, scaling and permuting twice gave — the factored
// matrix, the factors, the replaced pivots and the solutions — and so
// does a refactored Solver used as a donor, and an input whose RowInd and
// Val run on past ColPtr[n].
func TestNewWithSymbolicMatchesParentRecipe(t *testing.T) {
	for _, sys := range refactorSystems() {
		for oname, opts := range refactorOptions() {
			label := fmt.Sprintf("%s %s", sys.name, oname)
			donor, err := NewAnalysis(sys.a, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			v1, v2 := perturbValues(sys.a, 1), perturbValues(sys.a, 2)
			got, err := NewWithSymbolic(v1, donor)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			sameSolver(t, label, got, parentRefactor(t, v1, donor))

			want, err := NewWithSymbolic(v2, donor)
			if err != nil {
				t.Fatal(err)
			}
			again, err := NewWithSymbolic(v2, got)
			if err != nil {
				t.Fatalf("%s: refactored Solver as donor: %v", label, err)
			}
			sameSolver(t, label+" refactored donor", again, want)

			nnz := v2.Nnz()
			spare := &sparse.CSC{Rows: v2.Rows, Cols: v2.Cols, ColPtr: v2.ColPtr,
				RowInd: append(v2.RowInd[:nnz:nnz], 0, v2.Rows-1), Val: append(v2.Val[:nnz:nnz], math.NaN(), 1e300)}
			tail, err := NewWithSymbolic(spare, donor)
			if err != nil {
				t.Fatalf("%s: entries past ColPtr[n]: %v", label, err)
			}
			sameSolver(t, label+" entries past ColPtr[n]", tail, want)
		}
	}
}

// TestNewWithSymbolicSharesDonorPattern: a refactored Solver owns one
// value array; the factored matrix's pattern is the donor's. The
// allocation count pins what a refactorization costs with Workers = 0.
func TestNewWithSymbolicSharesDonorPattern(t *testing.T) {
	sys := refactorSystems()[0]
	donor, err := NewAnalysis(sys.a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	v := perturbValues(sys.a, 3)
	s, err := NewWithSymbolic(v, donor)
	if err != nil {
		t.Fatal(err)
	}
	ap, dap := s.PermutedMatrix(), donor.PermutedMatrix()
	if &ap.ColPtr[0] != &dap.ColPtr[0] || &ap.RowInd[0] != &dap.RowInd[0] || &ap.Val[0] == &dap.Val[0] {
		t.Error("refactored Solver does not share exactly the donor's pattern")
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewWithSymbolic(v, donor); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 9 {
		t.Errorf("NewWithSymbolic allocates %v times, want at most 9", allocs)
	}
}

// TestNewWithSymbolicConcurrentDonor: eight refactorizations on one
// donor at once (on two workers each, sharing the donor's schedule) all
// get the serial bits. make race runs it under the race detector.
func TestNewWithSymbolicConcurrentDonor(t *testing.T) {
	sys := refactorSystems()[0]
	opts := DefaultOptions()
	opts.Workers = 2
	donor, err := NewAnalysis(sys.a, opts)
	if err != nil {
		t.Fatal(err)
	}
	vs := make([]*sparse.CSC, 8)
	want := make([]uint64, len(vs))
	for g := range vs {
		vs[g] = perturbValues(sys.a, int64(10+g))
		s, err := NewWithSymbolic(vs[g], donor)
		if err != nil {
			t.Fatal(err)
		}
		want[g] = s.Factors().Fingerprint()
	}
	got := make([]uint64, len(vs))
	var wg sync.WaitGroup
	for g := range vs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := NewWithSymbolic(vs[g], donor)
			if err != nil {
				t.Error(err)
				return
			}
			got[g] = s.Factors().Fingerprint()
		}()
	}
	wg.Wait()
	for g := range got {
		if got[g] != want[g] {
			t.Errorf("goroutine %d: fingerprint %x, want %x", g, got[g], want[g])
		}
	}
}

// TestValueMapCheckFires: the checked build's validation of the value
// map accepts what build() makes and rejects a map with two entries
// swapped across columns, two swapped within a column (right column,
// wrong row), two sent to one position, one out of range, and one
// missing.
func TestValueMapCheckFires(t *testing.T) {
	sys := refactorSystems()[0]
	s, err := NewAnalysis(sys.a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.in.check(s.ap, s.rowMap, s.colMap); err != nil {
		t.Fatalf("valid map rejected: %v", err)
	}
	m := s.in
	last, c1 := len(m.dst)-1, m.colPtr[1]
	for _, c := range []struct {
		name    string
		corrupt func(dst []int32) []int32
	}{
		{"swapped across columns", func(dst []int32) []int32 { dst[0], dst[last] = dst[last], dst[0]; return dst }},
		{"swapped within a column", func(dst []int32) []int32 { dst[c1], dst[c1+1] = dst[c1+1], dst[c1]; return dst }},
		{"two entries at one position", func(dst []int32) []int32 { dst[c1+1] = dst[c1]; return dst }},
		{"out of range", func(dst []int32) []int32 { dst[last] = int32(len(dst)); return dst }},
		{"missing entry", func(dst []int32) []int32 { return dst[:last] }},
	} {
		bad := *m
		bad.dst = c.corrupt(slices.Clone(m.dst))
		if err := bad.check(s.ap, s.rowMap, s.colMap); err == nil {
			t.Errorf("%s: corrupted map accepted", c.name)
		}
	}
}

// TestStatsRecipGrowthIsTheScan: the growth Stats reports — taken in
// the column steps — has the bits of the scan over the factors for
// Workers 0 to 3: on the circuit class, where growth is well below 1,
// with aggressive replacement of tiny pivots, and with a NaN entry in
// a refactored matrix, which both skip.
func TestStatsRecipGrowthIsTheScan(t *testing.T) {
	circuit := refactorSystems()[2].a
	aggressive := DefaultOptions()
	aggressive.Equilibrate, aggressive.RowPermute = false, false // keep the tiny pivot tiny
	aggressive.AggressivePivot = true
	withNaN := circuit.Clone()
	withNaN.Val[withNaN.ColPtr[withNaN.Cols/2]] = math.NaN()
	for _, c := range []struct {
		name    string
		a       *sparse.CSC
		opts    Options
		refresh *sparse.CSC // refactored with these values, if set
		ok      func(*Solver) bool
	}{
		{"circuit", circuit, DefaultOptions(), nil, func(s *Solver) bool { return s.Stats().RecipGrowth < 0.5 }},
		{"aggressive", faultsim.New(25).NearSingular(150, 1e-12), aggressive, nil, func(s *Solver) bool { return s.Stats().TinyPivots > 0 }},
		{"NaN entry", circuit, DefaultOptions(), withNaN, func(s *Solver) bool { return slices.ContainsFunc(s.Factors().LVal, math.IsNaN) }},
	} {
		for _, workers := range []int{0, 1, 2, 3} {
			opts := c.opts
			opts.Workers = workers
			s, err := New(c.a, opts)
			if err == nil && c.refresh != nil {
				s, err = NewWithSymbolic(c.refresh, s)
			}
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if !c.ok(s) {
				t.Fatalf("%s workers=%d: the input does not exercise what it is for", c.name, workers)
			}
			if g, w := s.Stats().RecipGrowth, s.Factors().ReciprocalPivotGrowth(); math.Float64bits(g) != math.Float64bits(w) {
				t.Errorf("%s workers=%d: Stats().RecipGrowth %g, scan %g", c.name, workers, g, w)
			}
		}
	}
}
