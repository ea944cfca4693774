package symbolic

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gesp/internal/sparse"
)

// denseSymbolicLU simulates no-pivot elimination on a boolean dense
// pattern, the ground truth for fill.
func denseSymbolicLU(a *sparse.CSC) [][]bool {
	n := a.Rows
	f := make([][]bool, n)
	for i := range f {
		f[i] = make([]bool, n)
		f[i][i] = true // diagonal structural (tiny-pivot replacement)
	}
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			f[a.RowInd[k]][j] = true
		}
	}
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			if !f[i][k] {
				continue
			}
			for j := k + 1; j < n; j++ {
				if f[k][j] {
					f[i][j] = true
				}
			}
		}
	}
	return f
}

func randomSquare(rng *rand.Rand, n int, density float64) *sparse.CSC {
	t := sparse.NewTriplet(n, n)
	for j := 0; j < n; j++ {
		t.Append(j, j, 1+rng.Float64())
		for i := 0; i < n; i++ {
			if i != j && rng.Float64() < density {
				t.Append(i, j, rng.NormFloat64())
			}
		}
	}
	return t.ToCSC()
}

func patternsMatch(t *testing.T, a *sparse.CSC, r *Result) {
	t.Helper()
	n := a.Rows
	want := denseSymbolicLU(a)
	got := make([][]bool, n)
	for i := range got {
		got[i] = make([]bool, n)
	}
	for j := 0; j < n; j++ {
		for _, i := range r.LColRows(j) {
			if i <= j {
				t.Fatalf("L(:,%d) contains non-strict row %d", j, i)
			}
			got[i][j] = true
		}
		rows := r.UColRows(j)
		if len(rows) == 0 || rows[len(rows)-1] != j {
			t.Fatalf("U(:,%d) does not end with the diagonal: %v", j, rows)
		}
		for _, i := range rows {
			if i > j {
				t.Fatalf("U(:,%d) contains lower row %d", j, i)
			}
			got[i][j] = true
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if want[i][j] != got[i][j] {
				t.Fatalf("fill mismatch at (%d,%d): dense=%v symbolic=%v", i, j, want[i][j], got[i][j])
			}
		}
	}
}

func TestFactorizeMatchesDenseSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(30)
		a := randomSquare(rng, n, 0.08+rng.Float64()*0.25)
		r, err := Factorize(a, Options{})
		if err != nil {
			t.Fatal(err)
		}
		patternsMatch(t, a, r)
	}
}

func TestFactorizeTridiagonalNoFill(t *testing.T) {
	n := 40
	tr := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Append(i, i, 2)
		if i+1 < n {
			tr.Append(i+1, i, -1)
			tr.Append(i, i+1, -1)
		}
	}
	a := tr.ToCSC()
	r, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.NnzL() != n-1 {
		t.Errorf("nnz(L) = %d, want %d (no fill)", r.NnzL(), n-1)
	}
	if r.NnzU() != 2*n-1 {
		t.Errorf("nnz(U) = %d, want %d (no fill)", r.NnzU(), 2*n-1)
	}
	for j := 0; j+1 < n; j++ {
		if r.Parent[j] != j+1 {
			t.Errorf("Parent[%d] = %d, want %d", j, r.Parent[j], j+1)
		}
	}
	if r.Parent[n-1] != -1 {
		t.Errorf("Parent of last column = %d, want -1", r.Parent[n-1])
	}
}

func TestFactorizeDenseSupernode(t *testing.T) {
	n := 10
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			d[i][j] = 1
		}
	}
	a := sparse.FromDense(d)
	r, err := Factorize(a, Options{MaxSuper: 100})
	if err != nil {
		t.Fatal(err)
	}
	if r.NumSupernodes() != 1 {
		t.Errorf("dense matrix has %d supernodes, want 1", r.NumSupernodes())
	}
	r2, err := Factorize(a, Options{MaxSuper: 4})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < r2.NumSupernodes(); s++ {
		if w := r2.SupPtr[s+1] - r2.SupPtr[s]; w > 4 {
			t.Errorf("supernode %d width %d exceeds MaxSuper 4", s, w)
		}
	}
	// Dense LU flops: sum_k [(n-1-k) + 2(n-1-k)^2].
	var want int64
	for k := 0; k < n; k++ {
		m := int64(n - 1 - k)
		want += m + 2*m*m
	}
	if r.Flops != want {
		t.Errorf("dense flops = %d, want %d", r.Flops, want)
	}
}

func TestFactorizeArrowMatrix(t *testing.T) {
	// Arrow pointing up-left (dense first row and column): full fill.
	n := 12
	tr := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Append(i, i, 4)
		if i > 0 {
			tr.Append(i, 0, 1)
			tr.Append(0, i, 1)
		}
	}
	bad, err := Factorize(tr.ToCSC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Arrow pointing down-right (dense last row/column): zero fill.
	tr2 := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr2.Append(i, i, 4)
		if i < n-1 {
			tr2.Append(i, n-1, 1)
			tr2.Append(n-1, i, 1)
		}
	}
	good, err := Factorize(tr2.ToCSC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if good.FillLU() >= bad.FillLU() {
		t.Errorf("down-right arrow fill %d should be far below up-left arrow fill %d", good.FillLU(), bad.FillLU())
	}
	if wantL := n - 1; good.NnzL() != wantL {
		t.Errorf("down-right arrow nnz(L) = %d, want %d", good.NnzL(), wantL)
	}
}

func TestSupernodeInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		a := randomSquare(rng, n, 0.15)
		r, err := Factorize(a, Options{MaxSuper: 1 + rng.Intn(8)})
		if err != nil {
			return false
		}
		// Partition covers [0,n) monotonically.
		if r.SupPtr[0] != 0 || r.SupPtr[len(r.SupPtr)-1] != n {
			return false
		}
		for s := 0; s+1 < len(r.SupPtr); s++ {
			if r.SupPtr[s] >= r.SupPtr[s+1] {
				return false
			}
			for j := r.SupPtr[s]; j < r.SupPtr[s+1]; j++ {
				if r.SupOf[j] != s {
					return false
				}
			}
			// Dense diagonal block: every column in the supernode reaches
			// all later columns of the supernode in its L pattern.
			for j := r.SupPtr[s]; j < r.SupPtr[s+1]-1; j++ {
				rows := r.LColRows(j)
				need := r.SupPtr[s+1] - j - 1
				if len(rows) < need {
					return false
				}
				for k := 0; k < need; k++ {
					if rows[k] != j+1+k {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestFactorizeMissingDiagonal(t *testing.T) {
	// Structurally zero diagonal entries must still appear in U (they hold
	// the replaced tiny pivots).
	tr := sparse.NewTriplet(3, 3)
	tr.Append(1, 0, 1)
	tr.Append(0, 1, 1)
	tr.Append(2, 2, 1)
	r, err := Factorize(tr.ToCSC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		rows := r.UColRows(j)
		if rows[len(rows)-1] != j {
			t.Errorf("column %d: diagonal missing from U", j)
		}
	}
}

func TestFactorizeRejectsRectangular(t *testing.T) {
	tr := sparse.NewTriplet(2, 3)
	tr.Append(0, 0, 1)
	if _, err := Factorize(tr.ToCSC(), Options{}); err == nil {
		t.Error("rectangular matrix accepted")
	}
}

func TestAvgSupernode(t *testing.T) {
	n := 30
	tr := sparse.NewTriplet(n, n)
	for i := 0; i < n; i++ {
		tr.Append(i, i, 1)
	}
	r, err := Factorize(tr.ToCSC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Diagonal matrix: every column is its own trivial supernode except
	// merged empty-pattern runs; width average must be between 1 and MaxSuper.
	if avg := r.AvgSupernode(); avg < 1 || avg > DefaultMaxSuper {
		t.Errorf("AvgSupernode = %g out of [1,%d]", avg, DefaultMaxSuper)
	}
}

func TestRelaxedSupernodesStillFactorCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := randomSquare(rng, 80, 0.06)
	strict, err := Factorize(a, Options{})
	if err != nil {
		t.Fatal(err)
	}
	relaxed, err := Factorize(a, Options{Relax: 4})
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.NumSupernodes() > strict.NumSupernodes() {
		t.Errorf("relaxation increased supernode count: %d > %d",
			relaxed.NumSupernodes(), strict.NumSupernodes())
	}
	// The fill pattern itself is unchanged by relaxation (it only regroups
	// columns into supernodes).
	if relaxed.NnzL() != strict.NnzL() || relaxed.NnzU() != strict.NnzU() {
		t.Error("relaxation changed the fill pattern")
	}
	// Diagonal-block density must hold for relaxed supernodes too: every
	// column reaches all later columns of its supernode.
	for s := 0; s < relaxed.NumSupernodes(); s++ {
		for j := relaxed.SupPtr[s]; j < relaxed.SupPtr[s+1]-1; j++ {
			rows := relaxed.LColRows(j)
			need := relaxed.SupPtr[s+1] - j - 1
			for k := 0; k < need; k++ {
				if k >= len(rows) || rows[k] != j+1+k {
					t.Fatalf("supernode %d column %d: diagonal block not dense", s, j)
				}
			}
		}
	}
	t.Logf("supernodes: strict=%d relaxed=%d", strict.NumSupernodes(), relaxed.NumSupernodes())
}

// TestRunStatistics checks Flops and the supernode-run statistics
// against a count made pair by pair from the patterns: a multiply-add
// L(i,k)·U(k,j) has the width of the rows of U(:,j) that share k's exact
// supernode (1 when the supernode is merely nested).
func TestRunStatistics(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 12; trial++ {
		a := randomSquare(rng, 30+10*trial, 0.08)
		r, err := Factorize(a, Options{MaxSuper: []int{1, 3, 8, 24}[trial%4], Relax: 4 * (trial % 2)})
		if err != nil {
			t.Fatal(err)
		}
		var flops, madds, weighted int64
		var byWidth [3]int64
		for j := 0; j < r.N; j++ {
			flops += int64(len(r.LColRows(j)))
			upper := r.UColRows(j)
			upper = upper[:len(upper)-1]
			for _, k := range upper {
				width := 0
				for _, k2 := range upper {
					if k2 == k || (r.SupExact[r.SupOf[k]] && r.SupOf[k2] == r.SupOf[k]) {
						width++
					}
				}
				m := int64(len(r.LColRows(k)))
				madds += m
				weighted += m * int64(width)
				switch {
				case width >= 4:
					byWidth[2] += m
				case width >= 2:
					byWidth[1] += m
				default:
					byWidth[0] += m
				}
			}
		}
		flops += 2 * madds
		if r.Flops != flops {
			t.Errorf("trial %d: Flops = %d, pairwise count %d", trial, r.Flops, flops)
		}
		if madds == 0 {
			continue
		}
		near := func(got, want float64) bool { d := got - want; return d < 1e-12 && d > -1e-12 }
		if want := float64(weighted) / float64(madds); !near(r.RunWidth, want) {
			t.Errorf("trial %d: RunWidth = %g, pairwise %g", trial, r.RunWidth, want)
		}
		for b, m := range byWidth {
			if want := float64(m) / float64(madds); !near(r.RunShare[b], want) {
				t.Errorf("trial %d: RunShare[%d] = %g, pairwise %g", trial, b, r.RunShare[b], want)
			}
		}
	}
	// A tridiagonal matrix has no supernode wider than its last two
	// columns: every multiply-add is a single-column update.
	tr := sparse.NewTriplet(20, 20)
	for i := 0; i < 20; i++ {
		tr.Append(i, i, 2)
		if i > 0 {
			tr.Append(i, i-1, -1)
			tr.Append(i-1, i, -1)
		}
	}
	r, err := Factorize(tr.ToCSC(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.RunWidth != 1 || r.RunShare != [3]float64{1, 0, 0} {
		t.Errorf("tridiagonal: RunWidth %g RunShare %v, want 1 and all single", r.RunWidth, r.RunShare)
	}
}
