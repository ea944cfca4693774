package sparse_test

import (
	"math/rand"
	"slices"
	"testing"

	"gesp/internal/matgen"
	"gesp/internal/sparse"
)

// The economics generator has rows and columns with ~0.7·n entries, the
// case where sorting each adjacency list by insertion was quadratic.
// Whatever sorts them, every list must equal the independently built,
// slices.Sort-ed, duplicate-free union of the column and the row.
func TestPatternsSortedOnDenseRows(t *testing.T) {
	a := matgen.EconomicsDense(600, 12, 0.004, rand.New(rand.NewSource(11)))
	at := a.Transpose()
	n := a.Cols
	maxDeg := 0
	check := func(name string, p *sparse.Pattern, want func(j int) []int) {
		t.Helper()
		if p.N != n || len(p.Ptr) != n+1 || p.Ptr[n] != len(p.Ind) {
			t.Fatalf("%s: malformed pattern", name)
		}
		for j := 0; j < n; j++ {
			w := want(j)
			slices.Sort(w)
			w = slices.Compact(w)
			if got := p.Ind[p.Ptr[j]:p.Ptr[j+1]]; !slices.Equal(got, w) {
				t.Fatalf("%s: vertex %d: adjacency differs from the sorted union (%d vs %d entries)", name, j, len(got), len(w))
			}
			maxDeg = max(maxDeg, len(w))
		}
	}
	offDiag := func(j int, lists ...[]int) []int {
		var u []int
		for _, l := range lists {
			for _, i := range l {
				if i != j {
					u = append(u, i)
				}
			}
		}
		return u
	}
	col := func(m *sparse.CSC, j int) []int { return m.RowInd[m.ColPtr[j]:m.ColPtr[j+1]] }
	check("A+Aᵀ", sparse.PatternAPlusAT(a), func(j int) []int {
		return offDiag(j, col(a, j), col(at, j))
	})
	if maxDeg < 300 {
		t.Fatalf("largest A+Aᵀ degree %d: the generator no longer produces dense rows", maxDeg)
	}
	check("AᵀA", sparse.PatternATA(a), func(j int) []int {
		var u []int
		for _, i := range col(a, j) {
			u = append(u, col(at, i)...)
		}
		return offDiag(j, u)
	})
}
