package core

import (
	"math/rand"
	"testing"

	"gesp/internal/matgen"
	"gesp/internal/sparse"
)

// perturbValues returns a clone of a with every stored value scaled by a
// factor near 1: the same pattern, different numerics — the serving
// workload NewWithSymbolic exists for.
func perturbValues(a *sparse.CSC, seed int64) *sparse.CSC {
	rng := rand.New(rand.NewSource(seed))
	b := a.Clone()
	for k := range b.Val {
		b.Val[k] *= 1 + 0.1*rng.NormFloat64()
	}
	return b
}

// TestNewWithSymbolicSkipsAnalysis is the satellite's proof obligation:
// the reuse path must run zero equilibration/matching/ordering/symbolic
// phases, counted by the Stats phase counters, while still solving the
// new system accurately.
func TestNewWithSymbolicSkipsAnalysis(t *testing.T) {
	m, ok := matgen.Lookup("SHERMAN4")
	if !ok {
		t.Fatal("testbed matrix SHERMAN4 missing")
	}
	a := m.Generate(testScale)
	donor, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ds := donor.Stats()
	if ds.EquilRuns != 1 || ds.RowPermRuns != 1 || ds.OrderRuns != 1 || ds.SymbolicRuns != 1 || ds.FactorRuns != 1 {
		t.Fatalf("donor phase counters = %+v, want each analysis phase run once", ds)
	}

	a2 := perturbValues(a, 99)
	reused, err := NewWithSymbolic(a2, donor)
	if err != nil {
		t.Fatal(err)
	}
	rs := reused.Stats()
	if rs.EquilRuns != 0 || rs.RowPermRuns != 0 || rs.OrderRuns != 0 || rs.SymbolicRuns != 0 {
		t.Fatalf("reuse path ran analysis work: %+v", rs)
	}
	if rs.FactorRuns != 1 {
		t.Fatalf("reuse path FactorRuns = %d, want 1", rs.FactorRuns)
	}
	if rs.Times.Equil != 0 || rs.Times.RowPerm != 0 || rs.Times.Order != 0 || rs.Times.Symbolic != 0 {
		t.Fatalf("reuse path charged analysis time: %+v", rs.Times)
	}
	if rs.NnzLU != ds.NnzLU {
		t.Fatalf("reused structure reports fill %d, donor %d", rs.NnzLU, ds.NnzLU)
	}

	// The reused-analysis solve must still be accurate on the NEW values.
	b := matgen.OnesRHS(a2)
	x, err := reused.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if e := sparse.RelErrInf(x, onesSolution(a2.Rows)); e > 2e-3 {
		t.Fatalf("reused-symbolic solve error %g", e)
	}
	if berr := reused.Stats().Berr; berr > 1e-10 {
		t.Fatalf("reused-symbolic berr = %g, want near eps", berr)
	}

	// And it must agree with a from-scratch factorization of a2.
	fresh, err := New(a2, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	xf, err := fresh.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if e := sparse.RelErrInf(x, xf); e > 1e-8 {
		t.Fatalf("reused vs fresh solutions differ by %g", e)
	}
}

func TestNewWithSymbolicRejectsMismatch(t *testing.T) {
	m, _ := matgen.Lookup("SHERMAN4")
	a := m.Generate(testScale)
	donor, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Different pattern, same size: drop the last stored entry.
	tr := sparse.NewTriplet(a.Rows, a.Cols)
	for j := 0; j < a.Cols; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if k == a.Nnz()-1 {
				continue
			}
			tr.Append(a.RowInd[k], j, a.Val[k])
		}
	}
	if _, err := NewWithSymbolic(tr.ToCSC(), donor); err == nil {
		t.Fatal("pattern mismatch not rejected")
	}
	// Same nnz, same column counts: one row index moves within its column.
	moved := a.Clone()
	for j := 0; j < a.Cols; j++ {
		if last := a.ColPtr[j+1] - 1; last >= a.ColPtr[j] && a.RowInd[last] < a.Rows-1 {
			moved.RowInd[last]++
			break
		}
	}
	if _, err := NewWithSymbolic(moved, donor); err == nil {
		t.Fatal("a row index moved within its column not rejected")
	}
	// Different size.
	if _, err := NewWithSymbolic(sparse.Identity(3), donor); err == nil {
		t.Fatal("dimension mismatch not rejected")
	}
	// Donor without symbolic analysis.
	if _, err := NewWithSymbolic(a, nil); err == nil {
		t.Fatal("nil donor not rejected")
	}
}

// TestSolveBatchMatchesSolve checks the batched serving path end to end
// (scaling, permutation, multi-RHS sweep, refinement, unscaling) against
// the one-at-a-time Solve, with and without refinement.
func TestSolveBatchMatchesSolve(t *testing.T) {
	m, _ := matgen.Lookup("GEMAT11")
	a := m.Generate(testScale)
	for _, refineOn := range []bool{true, false} {
		opts := DefaultOptions()
		opts.Refine = refineOn
		s, err := New(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		const k = 11
		bs := make([][]float64, k)
		for r := range bs {
			bs[r] = make([]float64, a.Rows)
			for i := range bs[r] {
				bs[r][i] = rng.NormFloat64()
			}
		}
		xs, err := s.SolveBatch(bs)
		if err != nil {
			t.Fatal(err)
		}
		if len(xs) != k {
			t.Fatalf("got %d solutions, want %d", len(xs), k)
		}
		for r := range bs {
			want, err := s.Solve(bs[r])
			if err != nil {
				t.Fatal(err)
			}
			if e := sparse.RelErrInf(xs[r], want); e > 1e-9 {
				t.Fatalf("refine=%v rhs %d: batch vs single diverge by %g", refineOn, r, e)
			}
		}
	}
}

func TestSolveBatchErrors(t *testing.T) {
	m, _ := matgen.Lookup("SHERMAN4")
	a := m.Generate(testScale)
	s, err := NewAnalysis(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SolveBatch([][]float64{make([]float64, a.Rows)}); err == nil {
		t.Fatal("SolveBatch on analysis-only solver not rejected")
	}
	full, err := New(a, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := full.SolveBatch([][]float64{make([]float64, 2)}); err == nil {
		t.Fatal("wrong-length RHS not rejected")
	}
	if xs, err := full.SolveBatch(nil); err != nil || xs != nil {
		t.Fatalf("empty batch: got (%v, %v), want (nil, nil)", xs, err)
	}
}
