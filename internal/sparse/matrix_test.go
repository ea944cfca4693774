package sparse

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// randomCSC builds a random n-by-n matrix with the given expected density
// and a full diagonal, for property tests.
func randomCSC(rng *rand.Rand, n int, density float64) *CSC {
	t := NewTriplet(n, n)
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

func TestTripletToCSC(t *testing.T) {
	tr := NewTriplet(3, 3)
	tr.Append(2, 0, 1)
	tr.Append(0, 0, 2)
	tr.Append(0, 0, 3) // duplicate: summed
	tr.Append(1, 2, 4)
	a := tr.ToCSC()
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if got := a.At(0, 0); got != 5 {
		t.Errorf("At(0,0) = %g, want 5 (duplicates summed)", got)
	}
	if got := a.At(2, 0); got != 1 {
		t.Errorf("At(2,0) = %g, want 1", got)
	}
	if got := a.At(1, 2); got != 4 {
		t.Errorf("At(1,2) = %g, want 4", got)
	}
	if got := a.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %g, want 0 for missing entry", got)
	}
	if a.Nnz() != 3 {
		t.Errorf("Nnz = %d, want 3", a.Nnz())
	}
}

func TestTripletAppendPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Append out of range did not panic")
		}
	}()
	NewTriplet(2, 2).Append(2, 0, 1)
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomCSC(rng, 25, 0.15)
	att := a.Transpose().Transpose()
	if err := att.Check(); err != nil {
		t.Fatal(err)
	}
	da, db := a.Dense(), att.Dense()
	for i := range da {
		for j := range da[i] {
			if da[i][j] != db[i][j] {
				t.Fatalf("(Aᵀ)ᵀ differs from A at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomCSC(rng, 17, 0.2)
	at := a.Transpose()
	if err := at.Check(); err != nil {
		t.Fatal(err)
	}
	d := a.Dense()
	dt := at.Dense()
	for i := 0; i < 17; i++ {
		for j := 0; j < 17; j++ {
			if d[i][j] != dt[j][i] {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSC(rng, 30, 0.1)
	x := make([]float64, 30)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 30)
	a.MatVec(y, x)
	d := a.Dense()
	for i := range y {
		want := 0.0
		for j := range x {
			want += d[i][j] * x[j]
		}
		if math.Abs(y[i]-want) > 1e-12*math.Abs(want)+1e-12 {
			t.Fatalf("MatVec row %d = %g, want %g", i, y[i], want)
		}
	}
}

func TestMatTVecIsTransposeMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomCSC(rng, 20, 0.2)
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y1 := make([]float64, 20)
	y2 := make([]float64, 20)
	a.MatTVec(y1, x)
	a.Transpose().MatVec(y2, x)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("MatTVec differs from Transpose().MatVec at %d: %g vs %g", i, y1[i], y2[i])
		}
	}
}

func TestNorms(t *testing.T) {
	a := FromDense([][]float64{
		{1, -2, 0},
		{0, 3, -4},
		{5, 0, 0},
	})
	if got := a.Norm1(); got != 6 {
		t.Errorf("Norm1 = %g, want 6", got)
	}
	if got := a.NormInf(); got != 7 {
		t.Errorf("NormInf = %g, want 7", got)
	}
	if got := a.MaxAbs(); got != 5 {
		t.Errorf("MaxAbs = %g, want 5", got)
	}
}

func TestDiagonalAndZeroDiagonals(t *testing.T) {
	a := FromDense([][]float64{
		{2, 1, 0},
		{1, 0, 1},
		{0, 1, 3},
	})
	d := a.Diagonal()
	if d[0] != 2 || d[1] != 0 || d[2] != 3 {
		t.Errorf("Diagonal = %v, want [2 0 3]", d)
	}
	if got := a.ZeroDiagonals(); got != 1 {
		t.Errorf("ZeroDiagonals = %d, want 1", got)
	}
}

func TestScaleRowsCols(t *testing.T) {
	a := FromDense([][]float64{{2, 4}, {6, 8}})
	a.ScaleRowsCols([]float64{0.5, 2}, []float64{1, 0.25})
	want := [][]float64{{1, 0.5}, {12, 4}}
	got := a.Dense()
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("scaled (%d,%d) = %g, want %g", i, j, got[i][j], want[i][j])
			}
		}
	}
}

func TestPermuteRowsColsSym(t *testing.T) {
	a := FromDense([][]float64{
		{1, 2, 0},
		{0, 3, 4},
		{5, 0, 6},
	})
	p := []int{2, 0, 1} // old index -> new index
	pr := a.PermuteRows(p)
	if err := pr.Check(); err != nil {
		t.Fatal(err)
	}
	d := pr.Dense()
	orig := a.Dense()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if d[p[i]][j] != orig[i][j] {
				t.Fatalf("PermuteRows: entry (%d,%d) misplaced", i, j)
			}
		}
	}
	pc := a.PermuteCols(p)
	if err := pc.Check(); err != nil {
		t.Fatal(err)
	}
	d = pc.Dense()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if d[i][p[j]] != orig[i][j] {
				t.Fatalf("PermuteCols: entry (%d,%d) misplaced", i, j)
			}
		}
	}
	ps := a.PermuteSym(p)
	d = ps.Dense()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if d[p[i]][p[j]] != orig[i][j] {
				t.Fatalf("PermuteSym: entry (%d,%d) misplaced", i, j)
			}
		}
	}
}

func TestPermRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		a := randomCSC(rng, n, 0.2)
		p := rng.Perm(n)
		back := a.PermuteSym(p).PermuteSym(InversePerm(p))
		da, db := a.Dense(), back.Dense()
		for i := range da {
			for j := range da[i] {
				if da[i][j] != db[i][j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPermuteMapMatchesTwoPermutes: PermuteMap builds bit for bit what
// PermuteRows then PermuteCols build, and its map sends every entry of A
// to the entry of B that holds it — so a gather of new values through
// the map is the two permutes of a matrix with the same pattern.
func TestPermuteMapMatchesTwoPermutes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		a := randomCSC(rng, n, 0.2)
		pr, pc := rng.Perm(n), rng.Perm(n)
		b, dst := a.PermuteMap(pr, pc)
		want := a.PermuteRows(pr).PermuteCols(pc)
		if b.Check() != nil || !samePattern(b, want) || len(dst) != a.Nnz() {
			return false
		}
		for p := range want.Val {
			if math.Float64bits(b.Val[p]) != math.Float64bits(want.Val[p]) {
				return false
			}
		}
		seen := make([]bool, len(dst))
		for j := 0; j < n; j++ {
			for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
				p := int(dst[k])
				if seen[p] || p < b.ColPtr[pc[j]] || p >= b.ColPtr[pc[j]+1] || b.RowInd[p] != pr[a.RowInd[k]] || b.Val[p] != a.Val[k] {
					return false
				}
				seen[p] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func samePattern(a, b *CSC) bool {
	return a.Rows == b.Rows && slices.Equal(a.ColPtr, b.ColPtr) && slices.Equal(a.RowInd, b.RowInd)
}

func TestPermHelpers(t *testing.T) {
	p := []int{2, 0, 3, 1}
	if err := CheckPerm(p, 4); err != nil {
		t.Fatal(err)
	}
	if err := CheckPerm([]int{0, 0, 1, 2}, 4); err == nil {
		t.Error("CheckPerm accepted repeated value")
	}
	if err := CheckPerm([]int{0, 1}, 4); err == nil {
		t.Error("CheckPerm accepted wrong length")
	}
	inv := InversePerm(p)
	for i := range p {
		if inv[p[i]] != i {
			t.Fatalf("InversePerm broken at %d", i)
		}
	}
	id := ComposePerm(inv, p)
	for i, v := range id {
		if v != i {
			t.Fatalf("ComposePerm(inv,p) not identity at %d", i)
		}
	}
	x := []float64{10, 20, 30, 40}
	y := PermuteVec(p, x)
	for i := range x {
		if y[p[i]] != x[i] {
			t.Fatalf("PermuteVec misplaced index %d", i)
		}
	}
	z := UnpermuteVec(p, y)
	for i := range x {
		if z[i] != x[i] {
			t.Fatalf("UnpermuteVec not inverse of PermuteVec at %d", i)
		}
	}
}

func TestPermuteVecUnpermuteVecProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		p := rng.Perm(n)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64()
		}
		z := UnpermuteVec(p, PermuteVec(p, x))
		for i := range x {
			if z[i] != x[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSymmetryOf(t *testing.T) {
	sym := FromDense([][]float64{
		{1, 2, 0},
		{2, 1, 3},
		{0, 3, 1},
	})
	s := SymmetryOf(sym)
	if s.Str != 1 || s.Num != 1 {
		t.Errorf("symmetric matrix: got %+v, want Str=Num=1", s)
	}
	// One-directional entry: (0,1) has no partner; values differ at (1,2).
	asym := FromDense([][]float64{
		{1, 5, 0},
		{0, 1, 3},
		{0, 4, 1},
	})
	s = SymmetryOf(asym)
	if s.Str != 2.0/3.0 {
		t.Errorf("StrSym = %g, want 2/3", s.Str)
	}
	if s.Num != 0 {
		t.Errorf("NumSym = %g, want 0", s.Num)
	}
}

func TestPatternAPlusAT(t *testing.T) {
	a := FromDense([][]float64{
		{1, 2, 0},
		{0, 1, 0},
		{4, 0, 1},
	})
	p := PatternAPlusAT(a)
	adj := func(j int) []int { return p.Ind[p.Ptr[j]:p.Ptr[j+1]] }
	want := [][]int{{1, 2}, {0}, {0}}
	for j := range want {
		got := adj(j)
		if len(got) != len(want[j]) {
			t.Fatalf("vertex %d: adjacency %v, want %v", j, got, want[j])
		}
		for i := range got {
			if got[i] != want[j][i] {
				t.Fatalf("vertex %d: adjacency %v, want %v", j, got, want[j])
			}
		}
	}
}

func TestPatternATA(t *testing.T) {
	// Columns 0 and 2 share row 1; columns 0 and 1 share row 0.
	a := FromDense([][]float64{
		{1, 1, 0},
		{1, 0, 1},
		{0, 0, 1},
	})
	p := PatternATA(a)
	adj := func(j int) []int { return p.Ind[p.Ptr[j]:p.Ptr[j+1]] }
	want := [][]int{{1, 2}, {0}, {0}}
	for j := range want {
		got := adj(j)
		if len(got) != len(want[j]) {
			t.Fatalf("vertex %d: adjacency %v, want %v", j, got, want[j])
		}
		for i := range got {
			if got[i] != want[j][i] {
				t.Fatalf("vertex %d: adjacency %v, want %v", j, got, want[j])
			}
		}
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomCSC(rng, 12, 0.25)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	b, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if b.Rows != a.Rows || b.Cols != a.Cols || b.Nnz() != a.Nnz() {
		t.Fatalf("round trip changed shape: %dx%d nnz %d", b.Rows, b.Cols, b.Nnz())
	}
	da, db := a.Dense(), b.Dense()
	for i := range da {
		for j := range da[i] {
			if da[i][j] != db[i][j] {
				t.Fatalf("round trip changed value at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatrixMarketSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 2.0
2 1 -1.0
3 2 5.0
3 3 1.0
`
	a, err := ReadMatrixMarket(bytes.NewBufferString(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.At(0, 1) != -1 || a.At(1, 0) != -1 {
		t.Error("symmetric entry not mirrored")
	}
	if a.At(1, 2) != 5 || a.At(2, 1) != 5 {
		t.Error("symmetric entry not mirrored")
	}
	if a.Nnz() != 6 {
		t.Errorf("expanded nnz = %d, want 6", a.Nnz())
	}
}

func TestMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 1 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n",
	}
	for i, in := range cases {
		if _, err := ReadMatrixMarket(bytes.NewBufferString(in)); err == nil {
			t.Errorf("case %d: expected error, got none", i)
		}
	}
}

func TestResidualAndRelErr(t *testing.T) {
	a := FromDense([][]float64{{2, 0}, {0, 4}})
	x := []float64{1, 1}
	b := []float64{2, 4}
	r := make([]float64, 2)
	a.Residual(r, b, x)
	if r[0] != 0 || r[1] != 0 {
		t.Errorf("residual of exact solution = %v, want zeros", r)
	}
	if got := RelErrInf([]float64{1.1, 1}, []float64{1, 1}); math.Abs(got-0.1) > 1e-15 {
		t.Errorf("RelErrInf = %g, want 0.1", got)
	}
}

func TestAbsMatVec(t *testing.T) {
	a := FromDense([][]float64{{-1, 2}, {3, -4}})
	y := make([]float64, 2)
	a.AbsMatVec(y, []float64{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Errorf("AbsMatVec = %v, want [3 7]", y)
	}
}

func TestIdentityAndClone(t *testing.T) {
	a := Identity(4)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	b := a.Clone()
	b.Val[0] = 9
	if a.Val[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestCheckDetectsCorruption(t *testing.T) {
	a := Identity(3)
	a.RowInd[1] = 0 // duplicate row 0 in column 1? no: column 1 has row 0 < fine but unsorted vs... it's the only entry
	// Make column 1 contain a row index equal to column 0's: still legal.
	// Corrupt with out-of-range index instead.
	a.RowInd[2] = 5
	if err := a.Check(); err == nil {
		t.Error("Check accepted out-of-range row index")
	}
	b := Identity(3)
	b.ColPtr[1] = 3 // non-monotone
	if err := b.Check(); err == nil {
		t.Error("Check accepted non-monotone ColPtr")
	}
}
