package lu

import (
	"math"
	"math/rand"
	"testing"

	"gesp/internal/kernels"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// plantedBatch draws k right-hand sides of length n packed column-major.
// Plain: normal values, one in four an exact zero of either sign. With
// special: every vector dense but one drawn at random, three in four of
// whose entries are zeros of either sign — a column whose pivots are
// zero in that lane alone, over a -0 row, is where skipping the column
// for that lane and applying it to all differ — and then, each in its
// own vector, a planted -0, NaN, +Inf and -Inf, and a row zero in every
// vector, so whole tiles take the per-lane path there.
func plantedBatch(rng *rand.Rand, n, k int, special bool) []float64 {
	thin := -1
	if special {
		thin = rng.Intn(k)
	}
	x := make([]float64, n*k)
	for i := range x {
		x[i] = rng.NormFloat64()
		switch r := i / n; {
		case !special && rng.Intn(4) == 0, r == thin && rng.Intn(4) < 3:
			x[i] = math.Copysign(0, x[i])
		}
	}
	if !special {
		return x
	}
	for r, v := range []float64{math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1)} {
		if r < k {
			x[r*n+rng.Intn(n)] = v
		}
	}
	row := rng.Intn(n)
	for r := 0; r < k; r++ {
		x[r*n+row] = 0
	}
	return x
}

// checkSolveMulti solves the k right-hand sides in rhs with SolveMulti
// and each alone with Solve, and fails on the first bit that differs.
func checkSolveMulti(t *testing.T, f *Factors, rhs []float64, k int) {
	t.Helper()
	n := f.Sym.N
	multi := append([]float64(nil), rhs...)
	f.SolveMulti(multi, k, make([]float64, kernels.Lanes*n))
	for r := 0; r < k; r++ {
		one := append([]float64(nil), rhs[r*n:(r+1)*n]...)
		f.Solve(one)
		for i, v := range one {
			if math.Float64bits(v) != math.Float64bits(multi[r*n+i]) {
				t.Fatalf("n=%d k=%d rhs %d element %d: SolveMulti %x, Solve %x",
					n, k, r, i, math.Float64bits(multi[r*n+i]), math.Float64bits(v))
			}
		}
	}
}

// TestSolveMultiGolden checks the batched kernel against repeated
// single-RHS Solve calls on plain right-hand sides. The tile sweep
// performs the same per-RHS updates in the same order, so the agreement
// should be exact (TestSolveMultiMatchesSolve pins it bitwise); the
// round-off tolerance guards the contract rather than the implementation.
func TestSolveMultiGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 7, 60} {
		a := randomSolvable(rng, n, 0.15)
		sym, err := symbolic.Factorize(a, symbolic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		f, err := Factorize(a, sym, Options{ReplaceTinyPivot: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 3, 17} {
			// One packed multi-RHS buffer and the equivalent k singles.
			multi := make([]float64, n*k)
			singles := make([][]float64, k)
			for r := 0; r < k; r++ {
				singles[r] = make([]float64, n)
				for i := 0; i < n; i++ {
					v := rng.NormFloat64()
					if rng.Intn(4) == 0 {
						v = 0 // exercise the zero-skip path
					}
					multi[r*n+i] = v
					singles[r][i] = v
				}
			}
			f.SolveMulti(multi, k, make([]float64, kernels.Lanes*n))
			for r := 0; r < k; r++ {
				f.Solve(singles[r])
				if e := sparse.RelErrInf(multi[r*n:(r+1)*n], singles[r]); e > 1e-13 {
					t.Fatalf("n=%d k=%d rhs %d: SolveMulti diverges from Solve by %g", n, k, r, e)
				}
			}
		}
	}
}

// TestSolveMultiMatchesSolve pins the batched multi-RHS solve bitwise to
// repeated single-RHS solves at every tile boundary (k below, at and
// past one and two tiles of kernels.Lanes), with zeros, -0, NaN and ±Inf
// planted in the right-hand sides.
func TestSolveMultiMatchesSolve(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(48))
	systems := []*sparse.CSC{randomSolvable(rng, 1, 0.15), randomSolvable(rng, 7, 0.15), randomSolvable(rng, 60, 0.15)}
	a, _ := randomSystem(rng, 120, 0.06)
	for _, a := range append(systems, a) {
		sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 8})
		if err != nil {
			t.Fatal(err)
		}
		f, err := Factorize(a, sym, Options{ReplaceTinyPivot: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 2, 3, 7, 8, 9, 16, 17} {
			checkSolveMulti(t, f, plantedBatch(rng, sym.N, k, false), k)
			for rep := 0; rep < 4; rep++ {
				checkSolveMulti(t, f, plantedBatch(rng, sym.N, k, true), k)
			}
		}
	}
}

// FuzzSolveMultiMatchesSolve extends TestSolveMultiMatchesSolve to fuzzed
// systems (size, density and seed) and batch widths up to 20.
func FuzzSolveMultiMatchesSolve(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(9), uint8(20), true)
	f.Add(int64(2), uint8(1), uint8(8), uint8(50), false)
	f.Add(int64(3), uint8(79), uint8(17), uint8(5), true)
	f.Add(int64(4), uint8(12), uint8(2), uint8(90), true)
	f.Fuzz(func(t *testing.T, seed int64, size, width, density uint8, special bool) {
		rng := rand.New(rand.NewSource(seed))
		n, k := 1+int(size)%80, 1+int(width)%20
		a, sym := randomSystem(rng, n, float64(density%100)/400)
		fac, err := Factorize(a, sym, Options{ReplaceTinyPivot: true})
		if err != nil {
			t.Fatal(err)
		}
		checkSolveMulti(t, fac, plantedBatch(rng, n, k, special), k)
	})
}

// TestSolveMultiRecoversSolution solves A·X = B for a known X and checks
// the batched path end to end, over two full tiles and a partial one.
func TestSolveMultiRecoversSolution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, k := 48, kernels.Lanes*2+3
	a := randomSolvable(rng, n, 0.2)
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := Factorize(a, sym, Options{ReplaceTinyPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n*k)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	got := make([]float64, n*k)
	for r := 0; r < k; r++ {
		a.MatVec(got[r*n:(r+1)*n], want[r*n:(r+1)*n])
	}
	f.SolveMulti(got, k, make([]float64, kernels.Lanes*n))
	if e := sparse.RelErrInf(got, want); e > 1e-8 {
		t.Fatalf("batched solve error %g", e)
	}
}

func BenchmarkSolveMulti(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n, k := 400, 16
	a := randomSolvable(rng, n, 0.05)
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		b.Fatal(err)
	}
	f, err := Factorize(a, sym, Options{ReplaceTinyPivot: true})
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, n*k)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	work := make([]float64, n*k)
	tile := make([]float64, kernels.Lanes*n)
	b.Run("multi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, rhs)
			f.SolveMulti(work, k, tile)
		}
	})
	b.Run("repeated-single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			copy(work, rhs)
			for r := 0; r < k; r++ {
				f.Solve(work[r*n : (r+1)*n])
			}
		}
	})
}
