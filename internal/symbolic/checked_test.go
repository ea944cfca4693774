//go:build gespcheck

package symbolic_test

import (
	"strings"
	"testing"

	"gesp/internal/lu"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

func tridiag(n int) *sparse.CSC {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		d[i][i] = 2
		if i > 0 {
			d[i][i-1] = -1
			d[i-1][i] = -1
		}
	}
	return sparse.FromDense(d)
}

// TestCheckedCatchesCorruptInput proves the gespcheck wiring at the
// symbolic phase boundary: Factorize re-validates its input matrix.
func TestCheckedCatchesCorruptInput(t *testing.T) {
	a := tridiag(8)
	a.RowInd[1], a.RowInd[2] = a.RowInd[2], a.RowInd[1]
	defer func() {
		r := recover()
		msg, ok := r.(string)
		if !ok || !strings.HasPrefix(msg, "gespcheck:") {
			t.Fatalf("panic = %v, want gespcheck message", r)
		}
	}()
	_, _ = symbolic.Factorize(a, symbolic.Options{})
}

// TestResultCheckDetectsCorruption corrupts each invariant family of a
// valid symbolic result and asserts Check rejects it.
func TestResultCheckDetectsCorruption(t *testing.T) {
	fresh := func() *symbolic.Result {
		sym, err := symbolic.Factorize(tridiag(8), symbolic.Options{MaxSuper: 2})
		if err != nil {
			t.Fatal(err)
		}
		return sym
	}
	if err := fresh().Check(); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}

	sym := fresh()
	sym.SupOf[1] = sym.SupOf[1] + 1 // partition/map disagreement
	if err := sym.Check(); err == nil {
		t.Error("corrupt SupOf accepted")
	}

	sym = fresh()
	sym.Parent[0] = 5 // etree no longer matches the L pattern
	if err := sym.Check(); err == nil {
		t.Error("corrupt Parent accepted")
	}

	sym = fresh()
	if sym.NnzL() > 0 {
		sym.LInd[0] = 0 // row not strictly below the diagonal
		if err := sym.Check(); err == nil {
			t.Error("corrupt L pattern accepted")
		}
	}
}

// leafAndColumn is a 2-column leaf {0,1} with one row (3) below it, an
// uncoupled column 2, and a last column that meets the leaf in the run
// of U rows 0..1.
func leafAndColumn() *sparse.CSC {
	return sparse.FromDense([][]float64{
		{4, 1, 0, 1},
		{1, 4, 0, 1},
		{0, 0, 4, 0},
		{1, 1, 0, 4},
	})
}

// nestedColumns has L(:,0) = {1,2,3} over L(:,1) = {2} over an empty
// L(:,2): with relaxation the three merge into one supernode whose
// columns are nested, not identical.
func nestedColumns() *sparse.CSC {
	return sparse.FromDense([][]float64{
		{4, 0, 0, 1},
		{1, 4, 0, 1},
		{1, 1, 4, 1},
		{1, 0, 0, 4},
	})
}

// TestResultCheckExactSupernodeLayout corrupts the layout the fused
// column update reads without looking: an exact supernode's columns must
// share the last column's rows below the dense diagonal block.
func TestResultCheckExactSupernodeLayout(t *testing.T) {
	fresh := func() *symbolic.Result {
		sym, err := symbolic.Factorize(leafAndColumn(), symbolic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sym.NumSupernodes() != 3 || !sym.SupExact[0] || sym.SupPtr[1] != 2 {
			t.Fatalf("want the exact leaf {0,1} first: SupPtr %v SupExact %v", sym.SupPtr, sym.SupExact)
		}
		return sym
	}
	sym := fresh()
	// L(:,0) = {1,3}: move its row below the block off L(:,1) = {3}.
	sym.LInd[sym.LPtr[0]+1] = 2
	if err := sym.Check(); err == nil || !strings.Contains(err.Error(), "exact supernode") {
		t.Errorf("L(:,0) no longer shares L(:,1)'s rows: Check = %v", err)
	}

	sym = fresh()
	sym.SupExact = sym.SupExact[:2]
	if err := sym.Check(); err == nil {
		t.Error("short SupExact accepted")
	}
}

// TestResultCheckSupernodeRunClosure corrupts the closure of the fill:
// U(:,j) must hold a suffix of every supernode it touches.
func TestResultCheckSupernodeRunClosure(t *testing.T) {
	sym, err := symbolic.Factorize(leafAndColumn(), symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// U(:,3) = {0,1,3} becomes {0,2,3}: row 0 of the leaf without row 1.
	sym.UInd[sym.UPtr[3]+1] = 2
	if err := sym.Check(); err == nil || !strings.Contains(err.Error(), "not every row") {
		t.Errorf("U(:,3) skips a row of the leaf: Check = %v", err)
	}
}

// TestResultCheckUColumnOrder corrupts the order the end-of-loop
// transpose establishes in every U column: ascending rows, the diagonal
// last.
func TestResultCheckUColumnOrder(t *testing.T) {
	fresh := func() *symbolic.Result {
		sym, err := symbolic.Factorize(leafAndColumn(), symbolic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := sym.UColRows(3); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
			t.Fatalf("U(:,3) = %v, want [0 1 3]", got)
		}
		return sym
	}
	sym := fresh()
	col := sym.UColRows(3)
	col[0], col[1] = col[1], col[0] // {1,0,3}
	if err := sym.Check(); err == nil || !strings.Contains(err.Error(), "unsorted") {
		t.Errorf("U(:,3) out of order: Check = %v", err)
	}

	sym = fresh()
	col = sym.UColRows(3)
	col[1], col[2] = col[2], col[1] // {0,3,1}
	if err := sym.Check(); err == nil || !strings.Contains(err.Error(), "diagonal as last entry") {
		t.Errorf("U(:,3) diagonal not last: Check = %v", err)
	}
}

// TestRelaxedSupernodesAreNotExact: a relaxed supernode whose columns are
// merely nested is marked not exact, passing it off as exact is caught,
// and the engine — which then takes it column by column — produces the
// bits it produces with no supernodes at all.
func TestRelaxedSupernodesAreNotExact(t *testing.T) {
	a := nestedColumns()
	relaxed, err := symbolic.Factorize(a, symbolic.Options{Relax: 4})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.NumSupernodes() != 2 || relaxed.SupExact[0] || !relaxed.SupExact[1] {
		t.Fatalf("want the nested supernode {0,1,2} not exact and {3} exact: SupPtr %v SupExact %v", relaxed.SupPtr, relaxed.SupExact)
	}
	columns, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := lu.Options{ReplaceTinyPivot: true}
	fr, err := lu.Factorize(a, relaxed, opts)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := lu.Factorize(a, columns, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fr.Fingerprint() != fc.Fingerprint() {
		t.Errorf("relaxed partition factors to %x, single columns to %x", fr.Fingerprint(), fc.Fingerprint())
	}

	relaxed.SupExact[0] = true
	if err := relaxed.Check(); err == nil || !strings.Contains(err.Error(), "exact supernode") {
		t.Errorf("nested supernode marked exact: Check = %v", err)
	}
}

// TestDependencyTreeCheckDetectsCorruption corrupts each property the
// parallel schedule takes from the A+Aᵀ tree: a forest numbered upward,
// and every U(:,j) row in j's subtree.
func TestDependencyTreeCheckDetectsCorruption(t *testing.T) {
	a := leafAndColumn()
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() []int { return symbolic.EtreeAPlusAT(a) }
	if err := sym.CheckDependencyTree(fresh()); err != nil {
		t.Fatalf("the A+Aᵀ tree rejected: %v", err)
	}

	parent := fresh()
	parent[3] = 1 // a parent numbered before its child: a cycle 1 → 3 → 1
	if err := sym.CheckDependencyTree(parent); err == nil || !strings.Contains(err.Error(), "not -1 or in") {
		t.Errorf("downward parent: CheckDependencyTree = %v", err)
	}

	parent = fresh()
	parent[0] = -1 // U(0,3) ≠ 0, but 0 is no longer below 3
	if err := sym.CheckDependencyTree(parent); err == nil || !strings.Contains(err.Error(), "not in the subtree") {
		t.Errorf("U row outside the subtree: CheckDependencyTree = %v", err)
	}
}
