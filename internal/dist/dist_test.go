package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gesp/internal/lu"
	"gesp/internal/matgen"
	"gesp/internal/mpisim"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// prepared builds a diagonally dominant random system with its symbolic
// structure, in factorable (pre-permuted) form.
func prepared(t *testing.T, seed int64, n int, density float64, maxSuper int) (*sparse.CSC, *symbolic.Result) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := sparse.NewTriplet(n, n)
	for j := 0; j < n; j++ {
		tr.Append(j, j, 4+rng.Float64())
		for i := 0; i < n; i++ {
			if i != j && rng.Float64() < density {
				tr.Append(i, j, rng.NormFloat64()*0.5)
			}
		}
	}
	a := tr.ToCSC()
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: maxSuper})
	if err != nil {
		t.Fatal(err)
	}
	return a, sym
}

func solveDist(t *testing.T, a *sparse.CSC, sym *symbolic.Result, opts Options) *Result {
	t.Helper()
	n := a.Rows
	want := make([]float64, n)
	for i := range want {
		want[i] = 1 + float64(i%5)
	}
	b := make([]float64, n)
	a.MatVec(b, want)
	res, err := Solve(a, sym, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if e := sparse.RelErrInf(res.X, want); e > 1e-9 {
		t.Fatalf("distributed solve error %g (P=%d, pipeline=%v, prune=%v)",
			e, opts.Procs, opts.Pipeline, opts.EDAGPrune)
	}
	return res
}

func TestDistributedSolveMatchesTruth(t *testing.T) {
	a, sym := prepared(t, 1, 150, 0.05, 8)
	for _, p := range []int{1, 2, 3, 4, 6, 8, 16} {
		for _, pipeline := range []bool{false, true} {
			for _, prune := range []bool{false, true} {
				solveDist(t, a, sym, Options{
					Procs: p, Pipeline: pipeline, EDAGPrune: prune, ReplaceTinyPivot: true,
				})
			}
		}
	}
}

func TestDistributedMatchesSerialFactors(t *testing.T) {
	// The distributed factorization must produce the same L and U values
	// as the serial left-looking GESP (same static structure, no pivoting
	// ⇒ identical results up to roundoff). Run the worker machinery on
	// one rank owning everything and compare entry by entry.
	a, sym := prepared(t, 7, 80, 0.08, 6)
	serial, err := lu.Factorize(a, sym, lu.Options{ReplaceTinyPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	blocks := oneRankFactor(a, sym)
	scale := a.MaxAbs()
	for j := 0; j < sym.N; j++ {
		bj := sym.SupOf[j]
		for p := sym.UPtr[j]; p < sym.UPtr[j+1]; p++ {
			i := sym.UInd[p]
			b, _ := blocks.Target(sym.SupOf[i], bj)
			got := b.At(i, j)
			if d := math.Abs(got - serial.UVal[p]); d > 1e-10*scale {
				t.Fatalf("U(%d,%d): dist %g vs serial %g", i, j, got, serial.UVal[p])
			}
		}
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			i := sym.LInd[q]
			b, _ := blocks.Target(sym.SupOf[i], bj)
			got := b.At(i, j)
			if d := math.Abs(got - serial.LVal[q]); d > 1e-10*scale {
				t.Fatalf("L(%d,%d): dist %g vs serial %g", i, j, got, serial.LVal[q])
			}
		}
	}
}

// oneRankFactor runs the distributed worker machinery on one rank
// owning everything and returns its factored grid.
func oneRankFactor(a *sparse.CSC, sym *symbolic.Result) *BlockGrid {
	st := BuildStructure(sym)
	var blocks *BlockGrid
	mpisim.NewWorld(1, mpisim.T3E900()).Run(func(r *mpisim.Rank) {
		w := newWorker(r, mpisim.NewGrid(1), st, Options{Procs: 1, ReplaceTinyPivot: true}, lu.TinyPivotThreshold(a.Norm1(), 0))
		w.bg.Scatter(a)
		w.factorize()
		blocks = w.bg
	})
	return blocks
}

func TestDistributedManyProcsMoreThanBlocks(t *testing.T) {
	// More processors than supernodes: idle ranks must not deadlock.
	a, sym := prepared(t, 11, 30, 0.1, 30)
	solveDist(t, a, sym, Options{Procs: 25, ReplaceTinyPivot: true, Pipeline: true, EDAGPrune: true})
}

func TestEDAGPruningReducesMessages(t *testing.T) {
	// The paper: pruned communication sent 16% fewer messages for AF23560
	// on 32 processes. Shape check: pruning must strictly reduce messages
	// on a sparse problem and give identical numerics.
	m, _ := matgen.Lookup("AF23560")
	a0 := m.Generate(0.25)
	// Use the raw generated matrix pattern (already nearly symmetric) —
	// factor it directly with dominance to keep the test self-contained.
	a := makeDominant(a0)
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 12})
	if err != nil {
		t.Fatal(err)
	}
	rUnpruned := solveDist(t, a, sym, Options{Procs: 8, ReplaceTinyPivot: true})
	rPruned := solveDist(t, a, sym, Options{Procs: 8, ReplaceTinyPivot: true, EDAGPrune: true})
	mu := rUnpruned.Factor.Messages
	mp := rPruned.Factor.Messages
	if mp >= mu {
		t.Errorf("pruned messages %d not below unpruned %d", mp, mu)
	}
	t.Logf("factor messages: unpruned=%d pruned=%d (%.1f%% fewer)", mu, mp, 100*float64(mu-mp)/float64(mu))
}

func TestPipelineReducesSimulatedTime(t *testing.T) {
	m, _ := matgen.Lookup("AF23560")
	a := makeDominant(m.Generate(0.25))
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 12})
	if err != nil {
		t.Fatal(err)
	}
	rPlain := solveDist(t, a, sym, Options{Procs: 8, ReplaceTinyPivot: true, EDAGPrune: true})
	rPipe := solveDist(t, a, sym, Options{Procs: 8, ReplaceTinyPivot: true, EDAGPrune: true, Pipeline: true})
	if rPipe.Factor.SimTime >= rPlain.Factor.SimTime {
		t.Errorf("pipelined time %g not below plain %g", rPipe.Factor.SimTime, rPlain.Factor.SimTime)
	}
	t.Logf("factor sim time: plain=%.4fs pipelined=%.4fs (%.1f%% faster)",
		rPlain.Factor.SimTime, rPipe.Factor.SimTime,
		100*(rPlain.Factor.SimTime-rPipe.Factor.SimTime)/rPlain.Factor.SimTime)
}

// makeDominant rewrites values so the diagonal dominates (the dist tests
// exercise the parallel machinery, not the pivoting heuristics).
func makeDominant(a *sparse.CSC) *sparse.CSC {
	b := a.Clone()
	n := b.Rows
	rowSum := make([]float64, n)
	for j := 0; j < n; j++ {
		for k := b.ColPtr[j]; k < b.ColPtr[j+1]; k++ {
			if b.RowInd[k] != j {
				rowSum[b.RowInd[k]] += math.Abs(b.Val[k])
			}
		}
	}
	tr := sparse.NewTriplet(n, n)
	hasDiag := make([]bool, n)
	for j := 0; j < n; j++ {
		for k := b.ColPtr[j]; k < b.ColPtr[j+1]; k++ {
			i := b.RowInd[k]
			if i == j {
				tr.Append(i, j, rowSum[i]+1)
				hasDiag[i] = true
			} else {
				tr.Append(i, j, b.Val[k])
			}
		}
	}
	for i := 0; i < n; i++ {
		if !hasDiag[i] {
			tr.Append(i, i, rowSum[i]+1)
		}
	}
	return tr.ToCSC()
}

func TestLoadBalanceFactorInRange(t *testing.T) {
	a, sym := prepared(t, 13, 120, 0.06, 8)
	res := solveDist(t, a, sym, Options{Procs: 6, ReplaceTinyPivot: true, EDAGPrune: true})
	if res.Factor.LoadBalance <= 0 || res.Factor.LoadBalance > 1 {
		t.Errorf("load balance B = %g, want in (0,1]", res.Factor.LoadBalance)
	}
	if res.Factor.CommFraction < 0 || res.Factor.CommFraction >= 1 {
		t.Errorf("comm fraction = %g", res.Factor.CommFraction)
	}
	if res.Factor.SimTime <= 0 || res.Solve.SimTime <= 0 {
		t.Error("phase times missing")
	}
	if res.Factor.Messages == 0 {
		t.Error("no factor messages counted on 6 procs")
	}
}

func TestDeterministicFactorSimTime(t *testing.T) {
	a, sym := prepared(t, 17, 100, 0.06, 8)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	r1, err := Solve(a, sym, b, Options{Procs: 4, ReplaceTinyPivot: true, EDAGPrune: true})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		r2, err := Solve(a, sym, b, Options{Procs: 4, ReplaceTinyPivot: true, EDAGPrune: true})
		if err != nil {
			t.Fatal(err)
		}
		if r2.Factor.SimTime != r1.Factor.SimTime {
			t.Fatalf("factorization sim time varies: %g vs %g", r1.Factor.SimTime, r2.Factor.SimTime)
		}
		if r2.Factor.Messages != r1.Factor.Messages {
			t.Fatalf("message count varies: %d vs %d", r1.Factor.Messages, r2.Factor.Messages)
		}
		for i := range r1.X {
			if r1.X[i] != r2.X[i] {
				t.Fatal("solution varies across runs")
			}
		}
	}
}

func TestStructureInvariants(t *testing.T) {
	a, sym := prepared(t, 19, 90, 0.08, 5)
	st := BuildStructure(sym)
	_ = a
	for k := 0; k < st.N; k++ {
		prev := k
		for _, lb := range st.LBlocks[k] {
			if lb.I <= prev && prev != k {
				t.Fatalf("panel %d: L blocks not ascending", k)
			}
			if lb.I <= k {
				t.Fatalf("panel %d: L block I=%d not below diagonal", k, lb.I)
			}
			for q := 1; q < len(lb.Rows); q++ {
				if lb.Rows[q] <= lb.Rows[q-1] {
					t.Fatalf("panel %d block %d: rows unsorted", k, lb.I)
				}
			}
			for _, r := range lb.Rows {
				if sym.SupOf[r] != lb.I {
					t.Fatalf("panel %d: row %d outside supernode %d", k, r, lb.I)
				}
			}
			prev = lb.I
		}
		for _, ub := range st.UBlocks[k] {
			if ub.J <= k {
				t.Fatalf("row %d: U block J=%d not right of diagonal", k, ub.J)
			}
			for _, c := range ub.Cols {
				if sym.SupOf[c] != ub.J {
					t.Fatalf("row %d: col %d outside supernode %d", k, c, ub.J)
				}
			}
		}
	}
	// RowL/ColU must mirror LBlocks/UBlocks.
	nL, nRowL := 0, 0
	for k := 0; k < st.N; k++ {
		nL += len(st.LBlocks[k])
		nRowL += len(st.RowL[k])
	}
	if nL != nRowL {
		t.Errorf("RowL has %d entries, LBlocks %d", nRowL, nL)
	}
	// ColL/RowU are LBlocks/UBlocks without the index sets.
	for k := 0; k < st.N; k++ {
		if len(st.ColL[k]) != len(st.LBlocks[k]) || len(st.RowU[k]) != len(st.UBlocks[k]) {
			t.Fatalf("supernode %d: ColL/RowU lengths %d/%d, blocks %d/%d", k,
				len(st.ColL[k]), len(st.RowU[k]), len(st.LBlocks[k]), len(st.UBlocks[k]))
		}
		for i, lb := range st.LBlocks[k] {
			if st.ColL[k][i] != lb.I {
				t.Fatalf("ColL[%d][%d] = %d, LBlocks says %d", k, i, st.ColL[k][i], lb.I)
			}
		}
		for j, ub := range st.UBlocks[k] {
			if st.RowU[k][j] != ub.J {
				t.Fatalf("RowU[%d][%d] = %d, UBlocks says %d", k, j, st.RowU[k][j], ub.J)
			}
		}
	}
}

func TestBlockOps(t *testing.T) {
	// FactorDiag + solves against a tiny known system.
	d := NewBlock([]int{0, 1}, []int{0, 1})
	d.Set(0, 0, 4)
	d.Set(1, 0, 2)
	d.Set(0, 1, 2)
	d.Set(1, 1, 3)
	tiny, flops, ok := d.FactorDiag(1e-12, true)
	if !ok || tiny != 0 || flops <= 0 {
		t.Fatalf("FactorDiag: tiny=%d flops=%d ok=%v", tiny, flops, ok)
	}
	// L = [1 0; 0.5 1], U = [4 2; 0 2].
	if got := d.At(1, 0); got != 0.5 {
		t.Errorf("L(1,0) = %g, want 0.5", got)
	}
	if got := d.At(1, 1); got != 2 {
		t.Errorf("U(1,1) = %g, want 2", got)
	}
	// Forward then backward solve of [4 2; 2 3]·x = [8 7] → x = [1, 2]... check:
	// 4·1+2·2 = 8 ✓, 2·1+3·2 = 8 ≠ 7. Use b = A·[1,2] = [8, 8].
	x := []float64{8, 8}
	d.ForwardSolveDiag(x)
	d.BackSolveDiag(x)
	if math.Abs(x[0]-1) > 1e-14 || math.Abs(x[1]-2) > 1e-14 {
		t.Errorf("diag solve = %v, want [1 2]", x)
	}
}

func TestZeroPivotReported(t *testing.T) {
	// Singular 2x2 leading block with replacement disabled: the driver
	// must report the zero pivot rather than deadlock.
	tr := sparse.NewTriplet(3, 3)
	tr.Append(0, 1, 1)
	tr.Append(1, 0, 1)
	tr.Append(2, 2, 1)
	tr.Append(0, 0, 0) // explicit structural diagonal, numerically zero
	tr.Append(1, 1, 0)
	a := tr.ToCSC()
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 1, 1}
	_, err = Solve(a, sym, b, Options{Procs: 2, ReplaceTinyPivot: false})
	if err == nil {
		t.Fatal("zero pivot not reported")
	}
}

func TestDistributedWithRelaxedSupernodes(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	tr := sparse.NewTriplet(100, 100)
	for j := 0; j < 100; j++ {
		tr.Append(j, j, 5+rng.Float64())
		for i := 0; i < 100; i++ {
			if i != j && rng.Float64() < 0.05 {
				tr.Append(i, j, rng.NormFloat64()*0.4)
			}
		}
	}
	a := tr.ToCSC()
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 10, Relax: 4})
	if err != nil {
		t.Fatal(err)
	}
	solveDist(t, a, sym, Options{Procs: 4, Pipeline: true, EDAGPrune: true, ReplaceTinyPivot: true})
}

func TestSolveMultiRHS(t *testing.T) {
	a, sym := prepared(t, 29, 100, 0.06, 8)
	n := a.Rows
	var bs [][]float64
	var wants [][]float64
	for q := 0; q < 3; q++ {
		want := make([]float64, n)
		for i := range want {
			want[i] = float64((i+q)%4) + 1
		}
		b := make([]float64, n)
		a.MatVec(b, want)
		bs = append(bs, b)
		wants = append(wants, want)
	}
	res, xs, err := SolveMulti(a, sym, bs, Options{Procs: 4, Pipeline: true, EDAGPrune: true, ReplaceTinyPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 3 {
		t.Fatalf("%d solutions", len(xs))
	}
	for q := range xs {
		if e := sparse.RelErrInf(xs[q], wants[q]); e > 1e-9 {
			t.Errorf("rhs %d: error %g", q, e)
		}
	}
	if res.Solve.SimTime <= 0 {
		t.Error("solve stats missing")
	}
}

func TestSolveFrom1DRedistribution(t *testing.T) {
	a, sym := prepared(t, 31, 120, 0.06, 8)
	n := a.Rows
	want := make([]float64, n)
	for i := range want {
		want[i] = 2 - float64(i%3)
	}
	b := make([]float64, n)
	a.MatVec(b, want)
	for _, p := range []int{1, 3, 6} {
		res, redist, err := SolveFrom1D(a, sym, b, Uniform1D(n, p), Options{
			Procs: p, Pipeline: true, EDAGPrune: true, ReplaceTinyPivot: true,
		})
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if e := sparse.RelErrInf(res.X, want); e > 1e-9 {
			t.Fatalf("P=%d: error %g after redistribution", p, e)
		}
		if p > 1 && redist.Messages == 0 {
			t.Errorf("P=%d: no redistribution messages counted", p)
		}
		t.Logf("P=%d: redistribution %.4fs simulated, %d msgs, %d bytes",
			p, redist.SimTime, redist.Messages, redist.Volume)
	}
}

// SolveFrom1D honours Options.Grid like the other entry points: on a 1×4
// grid it reports that grid and factors with exactly Solve's traffic.
func TestSolveFrom1DHonoursGrid(t *testing.T) {
	a, sym := prepared(t, 31, 120, 0.06, 8)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	grid := mpisim.Grid{PRow: 1, PCol: 4}
	opts := Options{Procs: 4, Grid: &grid, Pipeline: true, EDAGPrune: true, ReplaceTinyPivot: true}
	res, _, err := SolveFrom1D(a, sym, b, Uniform1D(a.Rows, 4), opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Solve(a, sym, b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Grid != grid {
		t.Errorf("SolveFrom1D ran on grid %v, want %v", res.Grid, grid)
	}
	if res.Factor.Messages != plain.Factor.Messages || res.Factor.Volume != plain.Factor.Volume {
		t.Errorf("factor traffic %d msgs / %d bytes, Solve on the same grid %d / %d",
			res.Factor.Messages, res.Factor.Volume, plain.Factor.Messages, plain.Factor.Volume)
	}
	if res.Factor.Wall <= 0 || res.Solve.Wall <= 0 {
		t.Errorf("wall times not filled: factor %v, solve %v", res.Factor.Wall, res.Solve.Wall)
	}
}

// The zero-pivot error names the rank from every entry point.
func TestZeroPivotNamesRank(t *testing.T) {
	a := sparse.FromDense([][]float64{{0, 1, 0}, {1, 0, 0}, {0, 0, 1}})
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{1, 1, 1}
	_, _, err1D := SolveFrom1D(a, sym, b, Uniform1D(3, 2), Options{Procs: 2})
	_, _, errFT := SolveFT(a, sym, b, FTOptions{Options: Options{Procs: 2}})
	for _, err := range []error{err1D, errFT} {
		if !errors.Is(err, ErrZeroPivotDist) || !strings.Contains(fmt.Sprint(err), "rank") {
			t.Errorf("zero-pivot error %v does not wrap ErrZeroPivotDist with the rank", err)
		}
	}
}

// TestSweepTraffic pins the one message-driven sweep, in both
// directions, to the message and byte counts of the two mirror-image
// solves it replaced (recorded at the parent commit), and the driver's
// solve phase to their sum.
func TestSweepTraffic(t *testing.T) {
	a, sym := prepared(t, 1, 150, 0.05, 8)
	st := BuildStructure(sym)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	for _, tc := range []struct {
		p                                            int
		lowerMsgs, lowerBytes, upperMsgs, upperBytes int64
	}{
		{1, 0, 0, 0, 0},
		{4, 108, 2104, 109, 2112},
		{6, 141, 3008, 176, 3192},
	} {
		opts := Options{Procs: tc.p, ReplaceTinyPivot: true, EDAGPrune: true}
		snaps := make([][3]mpisim.Snapshot, tc.p)
		mpisim.NewWorld(tc.p, mpisim.T3E900()).Run(func(r *mpisim.Rank) {
			w := newWorker(r, mpisim.NewGrid(tc.p), st, opts, lu.TinyPivotThreshold(a.Norm1(), 0))
			w.bg.Scatter(a)
			w.factorize()
			r.Barrier()
			snaps[r.ID()][0] = r.Snap()
			ys := w.sweep(false, func(k int) []float64 {
				lo, hi := st.SupCols(k)
				return b[lo:hi]
			})
			r.Barrier()
			snaps[r.ID()][1] = r.Snap()
			w.sweep(true, func(k int) []float64 { return ys[k] })
			r.Barrier()
			snaps[r.ID()][2] = r.Snap()
		})
		var got [4]int64
		for _, s := range snaps {
			got[0] += s[1].Msgs - s[0].Msgs
			got[1] += s[1].Bytes - s[0].Bytes
			got[2] += s[2].Msgs - s[1].Msgs
			got[3] += s[2].Bytes - s[1].Bytes
		}
		if want := [4]int64{tc.lowerMsgs, tc.lowerBytes, tc.upperMsgs, tc.upperBytes}; got != want {
			t.Errorf("P=%d: sweep traffic (lower msgs, bytes, upper msgs, bytes) %v, want %v", tc.p, got, want)
		}
		res := solveDist(t, a, sym, opts) // holds the solution to the 1e-9 bound
		if res.Solve.Messages != tc.lowerMsgs+tc.upperMsgs || res.Solve.Volume != tc.lowerBytes+tc.upperBytes {
			t.Errorf("P=%d: solve phase %d msgs / %d bytes, want %d / %d", tc.p,
				res.Solve.Messages, res.Solve.Volume, tc.lowerMsgs+tc.upperMsgs, tc.lowerBytes+tc.upperBytes)
		}
	}
}

func TestUniform1DCoversAllRows(t *testing.T) {
	sl := Uniform1D(103, 7)
	if sl[0].Lo != 0 || sl[6].Hi != 103 {
		t.Fatalf("slices %v do not span", sl)
	}
	for i := 1; i < len(sl); i++ {
		if sl[i].Lo != sl[i-1].Hi {
			t.Fatalf("gap between slices %d and %d", i-1, i)
		}
	}
}
