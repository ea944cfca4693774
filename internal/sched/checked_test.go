//go:build gespcheck

package sched

import (
	"strings"
	"testing"

	"gesp/internal/dist"
	"gesp/internal/lu"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// arrowMatrix builds an n×n arrow matrix: dense last row and column, so
// every supernode has off-diagonal panels and Schur-update tasks.
func arrowMatrix(n int) *sparse.CSC {
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		d[i][i] = 4
	}
	for i := 0; i < n; i++ {
		d[i][n-1] = 1
		d[n-1][i] = 1
	}
	return sparse.FromDense(d)
}

// buildTestGraph constructs the task DAG of a small arrow matrix, whose
// dense last row/column guarantees off-diagonal panels and Schur-update
// tasks in every supernode.
func buildTestGraph(t *testing.T) *graph {
	t.Helper()
	a := arrowMatrix(12)
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := dist.BuildStructure(sym)
	grid := dist.NewGrid(st, nil)
	grid.Scatter(a)
	return buildGraph(st, grid, sym)
}

func TestAuditAcceptsFreshGraph(t *testing.T) {
	g := buildTestGraph(t)
	if err := g.audit(); err != nil {
		t.Fatalf("audit rejected a freshly built DAG: %v", err)
	}
}

func TestAuditDetectsCycle(t *testing.T) {
	g := buildTestGraph(t)
	// Close a cycle: make a successor of factor(0) point back at it,
	// keeping the dependency counter consistent with the extra edge so
	// only the acyclicity audit can object.
	f0 := g.factor[0]
	if len(f0.succ) == 0 {
		t.Fatal("test graph has no successor edges to corrupt")
	}
	back := f0.succ[0]
	back.succ = append(back.succ, f0)
	f0.deps.Add(1)
	err := g.audit()
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("audit = %v, want cycle detection", err)
	}
}

func TestAuditDetectsCounterMismatch(t *testing.T) {
	g := buildTestGraph(t)
	// A dependency counter that exceeds the real in-degree would
	// deadlock the worker pool: the task never becomes ready.
	g.factor[len(g.factor)-1].deps.Add(3)
	err := g.audit()
	if err == nil || !strings.Contains(err.Error(), "dependency counter") {
		t.Fatalf("audit = %v, want dependency-counter mismatch", err)
	}
}

func TestFactorizeRunsUnderCheckedBuild(t *testing.T) {
	a := arrowMatrix(12)
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Factorize(a, sym, lu.Options{ReplaceTinyPivot: true}, 2); err != nil {
		t.Fatal(err)
	}
}
