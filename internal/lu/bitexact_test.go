package lu

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gesp/internal/matgen"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// randomSystem builds a diagonally strong random matrix with its
// symbolic structure (supernodes capped at 8 columns).
func randomSystem(rng *rand.Rand, n int, density float64) (*sparse.CSC, *symbolic.Result) {
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
	sym, err := symbolic.Factorize(a, symbolic.Options{MaxSuper: 8})
	if err != nil {
		panic(err)
	}
	return a, sym
}

// plainLoopFactorize is the left-looking GESP factorization one column
// of L at a time, written with plain loops only — no internal/kernels
// call, no supernode runs: Factorize's body before the supernode-column
// update, kept as the engine-level oracle for every option.
func plainLoopFactorize(a *sparse.CSC, sym *symbolic.Result, opts Options) (*Factors, error) {
	n := sym.N
	thresh := TinyPivotThreshold(a.Norm1(), opts.Threshold)
	f := &Factors{
		Sym:     sym,
		LVal:    make([]float64, sym.NnzL()),
		UVal:    make([]float64, sym.NnzU()),
		ColAMax: make([]float64, n),
	}
	w := make([]float64, n)
	for j := 0; j < n; j++ {
		cmax := 0.0
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			w[a.RowInd[k]] = a.Val[k]
			if v := math.Abs(a.Val[k]); v > cmax {
				cmax = v
			}
		}
		f.ColAMax[j] = cmax
		diag := sym.UPtr[j+1] - 1
		for p := sym.UPtr[j]; p < diag; p++ {
			k := sym.UInd[p]
			ukj := w[k]
			f.UVal[p] = ukj
			w[k] = 0
			if ukj == 0 {
				continue
			}
			for q := sym.LPtr[k]; q < sym.LPtr[k+1]; q++ {
				w[sym.LInd[q]] -= f.LVal[q] * ukj
			}
		}
		piv := w[j]
		w[j] = 0
		if math.Abs(piv) < thresh {
			if !opts.ReplaceTinyPivot {
				if piv == 0 {
					return nil, &ZeroPivotError{Col: j, Threshold: thresh}
				}
			} else {
				repl := thresh
				if opts.Aggressive && cmax > thresh {
					repl = cmax
				}
				newPiv := math.Copysign(repl, piv)
				if piv == 0 {
					newPiv = repl
				}
				f.PivotMods = append(f.PivotMods, PivotMod{Col: j, Old: piv, New: newPiv})
				f.TinyPivots++
				piv = newPiv
			}
		}
		f.UVal[diag] = piv
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			i := sym.LInd[q]
			f.LVal[q] = w[i] / piv
			w[i] = 0
		}
	}
	return f, nil
}

// sameFactors fails unless got carries the bits of want: factor values,
// column maxima, pivot growth, and the record of replaced pivots.
func sameFactors(t *testing.T, label string, got, want *Factors) {
	t.Helper()
	for _, c := range []struct {
		name string
		g, w []float64
	}{{"LVal", got.LVal, want.LVal}, {"UVal", got.UVal, want.UVal}, {"ColAMax", got.ColAMax, want.ColAMax}} {
		for i := range c.w {
			if math.Float64bits(c.g[i]) != math.Float64bits(c.w[i]) {
				t.Fatalf("%s: %s[%d] = %x, plain loop %x", label, c.name, i, math.Float64bits(c.g[i]), math.Float64bits(c.w[i]))
			}
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint %x, plain loop %x", label, got.Fingerprint(), want.Fingerprint())
	}
	if g, w := got.ReciprocalPivotGrowth(), want.ReciprocalPivotGrowth(); math.Float64bits(g) != math.Float64bits(w) {
		t.Fatalf("%s: reciprocal pivot growth %g, plain loop %g", label, g, w)
	}
	if got.TinyPivots != want.TinyPivots || len(got.PivotMods) != len(want.PivotMods) {
		t.Fatalf("%s: %d tiny pivots (%d mods), plain loop %d (%d)", label, got.TinyPivots, len(got.PivotMods), want.TinyPivots, len(want.PivotMods))
	}
	for i, m := range want.PivotMods {
		g := got.PivotMods[i]
		if g.Col != m.Col || math.Float64bits(g.Old) != math.Float64bits(m.Old) || math.Float64bits(g.New) != math.Float64bits(m.New) {
			t.Fatalf("%s: pivot mod %d = %+v, plain loop %+v", label, i, g, m)
		}
	}
}

// checkAgainstPlainLoop factors a in the structure sym both ways and
// demands the same outcome: the same bits, or the same typed failure.
func checkAgainstPlainLoop(t *testing.T, label string, a *sparse.CSC, sym *symbolic.Result, opts Options) *Factors {
	t.Helper()
	want, wantErr := plainLoopFactorize(a, sym, opts)
	got, err := Factorize(a, sym, opts)
	if wantErr != nil || err != nil {
		var ge, we *ZeroPivotError
		if !errors.As(err, &ge) || !errors.As(wantErr, &we) || *ge != *we {
			t.Fatalf("%s: Factorize error %v, plain loop %v", label, err, wantErr)
		}
		return nil
	}
	sameFactors(t, label, got, want)
	return got
}

// leafSystem builds the structure nested dissection leaves behind and
// the supernode-column update is shaped for: dense leaf blocks of s
// columns, each coupled to one dense separator block of sep columns at
// the end. Every leaf is an exact supernode (cut at MaxSuper), and every
// separator column meets every leaf in one run of U rows. Nothing
// precedes a leaf's rows in a separator column, so the first U(k,j) of
// each run is A(k,j) itself: with zeros on, some of those are stored as
// 0 and -0, which puts exact zero multipliers inside runs.
func leafSystem(rng *rand.Rand, leaves, s, sep int, zeros bool) *sparse.CSC {
	n := leaves*s + sep
	tr := sparse.NewTriplet(n, n)
	dense := func(r0, r1, c0, c1 int, scale float64) {
		for j := c0; j < c1; j++ {
			for i := r0; i < r1; i++ {
				if i == j {
					tr.Append(i, j, 8+rng.Float64())
				} else {
					tr.Append(i, j, scale*rng.NormFloat64())
				}
			}
		}
	}
	for l := 0; l < leaves; l++ {
		dense(l*s, (l+1)*s, l*s, (l+1)*s, 0.5)
		dense(n-sep, n, l*s, (l+1)*s, 0.3) // L below the leaf
		dense(l*s, (l+1)*s, n-sep, n, 0.3) // U rows of the separator columns
	}
	dense(n-sep, n, n-sep, n, 0.5)
	a := tr.ToCSC()
	if zeros {
		negZero := math.Copysign(0, -1)
		for j := n - sep; j < n; j++ {
			for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
				// The leading rows of each leaf, in a pattern that varies
				// by column: 0, -0, value, 0, ...
				switch r := a.RowInd[p] % s; {
				case a.RowInd[p] >= n-sep || r > 3:
				case (r+j)%3 == 0:
					a.Val[p] = 0
				case (r+j)%3 == 1:
					a.Val[p] = negZero
				}
			}
		}
	}
	return a
}

// zeroMultiplierRuns counts the supernode runs of two or more columns in
// which the factorization met an exactly zero U(k,j).
func zeroMultiplierRuns(f *Factors) int {
	sym, count := f.Sym, 0
	for j := 0; j < sym.N; j++ {
		diag := sym.UPtr[j+1] - 1
		for p := sym.UPtr[j]; p < diag; {
			width := sym.RunLast(p, diag, j) - sym.UInd[p] + 1
			if width >= 2 {
				for _, u := range f.UVal[p : p+width] {
					if u == 0 {
						count++
						break
					}
				}
			}
			p += width
		}
	}
	return count
}

// TestColumnFactorizeMatchesPlainLoop is the engine-level statement of
// the kernels' bit-exactness contract: Factorize, which applies the
// columns of a supernode run through the fused kernels.SpAxpyCols,
// produces the bits of the column-at-a-time plain loop — for every
// supernode width and remainder, with relaxed (merely nested)
// supernodes, with zero multipliers inside a run, under every pivot
// policy, and on the benchmark's matrix classes. (The blocked engine's
// counterpart — FactorizeBlocked against the 1-rank distributed worker —
// lives in internal/dist.)
func TestColumnFactorizeMatchesPlainLoop(t *testing.T) {
	t.Parallel()
	replace := Options{ReplaceTinyPivot: true}
	symbolicOf := func(a *sparse.CSC, so symbolic.Options) *symbolic.Result {
		sym, err := symbolic.Factorize(a, so)
		if err != nil {
			t.Fatal(err)
		}
		return sym
	}

	// Random fill: a dense trailing block cut into supernodes of every
	// capped width, whose own columns clip each run at j-1.
	rng := rand.New(rand.NewSource(47))
	inexact := 0
	for trial := 0; trial < 3; trial++ {
		a, _ := randomSystem(rng, 80+40*trial, 0.06)
		for _, maxSuper := range []int{1, 2, 3, 5, 8, 24} {
			for _, relax := range []int{0, 4} {
				sym := symbolicOf(a, symbolic.Options{MaxSuper: maxSuper, Relax: relax})
				for _, exact := range sym.SupExact {
					if !exact {
						inexact++
					}
				}
				checkAgainstPlainLoop(t, fmt.Sprintf("random trial %d MaxSuper=%d Relax=%d", trial, maxSuper, relax), a, sym, replace)
			}
		}
	}
	if inexact == 0 {
		t.Error("no relaxed supernode was merely nested: the fallback was not exercised")
	}

	// Leaves and a separator: full-width runs with stored zeros and -0
	// as multipliers, under each width.
	for _, maxSuper := range []int{1, 2, 3, 5, 8, 24} {
		a := leafSystem(rng, 4, 11, 9, true)
		sym := symbolicOf(a, symbolic.Options{MaxSuper: maxSuper})
		f := checkAgainstPlainLoop(t, fmt.Sprintf("leaves with zeros MaxSuper=%d", maxSuper), a, sym, replace)
		if maxSuper > 1 && zeroMultiplierRuns(f) == 0 {
			t.Errorf("MaxSuper=%d: no zero multiplier inside a run", maxSuper)
		}
	}

	// Pivot policies. Zero diagonals at the head of two leaves: replaced
	// (by the threshold, or by the column maximum with the same
	// PivotMods), or the same ZeroPivotError at the same column.
	a := leafSystem(rng, 3, 7, 6, false)
	for _, c := range []int{7, 14} {
		for p := a.ColPtr[c]; p < a.ColPtr[c+1]; p++ {
			if a.RowInd[p] == c {
				a.Val[p] = 0
			}
		}
	}
	sym := symbolicOf(a, symbolic.Options{})
	for _, opts := range []Options{
		replace,
		{ReplaceTinyPivot: true, Aggressive: true},
		{ReplaceTinyPivot: true, Threshold: 9}, // every pivot replaced
		{},
	} {
		f := checkAgainstPlainLoop(t, fmt.Sprintf("zero diagonals %+v", opts), a, sym, opts)
		if opts.ReplaceTinyPivot && f.TinyPivots < 2 {
			t.Errorf("%+v: %d tiny pivots, want the two planted ones", opts, f.TinyPivots)
		}
		if !opts.ReplaceTinyPivot && f != nil {
			t.Error("zero pivot accepted with replacement off")
		}
	}

	// One system per benchmark class, reduced, in the natural order (the
	// circuit class has zero diagonals: tiny pivots are replaced).
	for _, class := range []struct {
		name string
		a    *sparse.CSC
	}{
		{"mesh", matgen.ConvectionDiffusion2D(14, 14, 1.5, 0.5, rng)},
		{"fill", matgen.ConvectionDiffusion3D(6, 6, 3, 1, 1, 1, 1, rng)},
		{"circuit", matgen.HarmonicBalance(24, 8, 4, rng)},
	} {
		a := matgen.EnsureFullRank(class.a, rng)
		sym := symbolicOf(a, symbolic.Options{})
		checkAgainstPlainLoop(t, class.name, a, sym, replace)
		checkAgainstPlainLoop(t, class.name+" aggressive", a, sym, Options{ReplaceTinyPivot: true, Aggressive: true})
	}
}

// TestSolveMultiMatchesSolve pins the batched multi-RHS solve bitwise
// to repeated single-RHS solves, zeros in the right-hand sides included.
func TestSolveMultiMatchesSolve(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(48))
	a, sym := randomSystem(rng, 120, 0.06)
	f, err := Factorize(a, sym, Options{ReplaceTinyPivot: true})
	if err != nil {
		t.Fatal(err)
	}
	n := sym.N
	const nrhs = 11
	rhs := make([]float64, n*nrhs)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
		if i%7 == 0 {
			rhs[i] = 0
		}
	}
	multi := make([]float64, len(rhs))
	copy(multi, rhs)
	f.SolveMulti(multi, nrhs)
	for r := 0; r < nrhs; r++ {
		one := make([]float64, n)
		copy(one, rhs[r*n:(r+1)*n])
		f.Solve(one)
		for i := range one {
			if math.Float64bits(one[i]) != math.Float64bits(multi[r*n+i]) {
				t.Fatalf("SolveMulti rhs %d element %d differs from Solve", r, i)
			}
		}
	}
}
