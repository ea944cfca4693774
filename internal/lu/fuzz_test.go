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

// Plant bits of FuzzFactorizeEnginesAgree: what to do to the drawn
// system and its factorization.
const (
	plantZeroDiag   = 1 << iota // store exact zeros on a few diagonals
	plantTinyPivots             // diagonals far below the threshold
	plantNonFinite              // NaN (two payloads) and ±Inf entries
	plantAggressive             // replace by the column maximum
	plantNoReplace              // replacement off: a zero pivot fails
	plantRelax                  // relaxed supernodes, merely nested ones among them
)

// fuzzSystem draws one of matgen's classes at a size folded from size:
// the 2-D mesh, the 3-D fill class, the harmonic-balance circuit, a
// plain circuit or a random sparse system.
func fuzzSystem(class, size uint8, rng *rand.Rand) *sparse.CSC {
	s := int(size % 16)
	switch class % 5 {
	case 0:
		return matgen.ConvectionDiffusion2D(3+s, 2+s/2, 1.5, 0.5, rng)
	case 1:
		return matgen.ConvectionDiffusion3D(2+s/3, 2+s/4, 2+s/5, 1, 1, 1, 1, rng)
	case 2:
		return matgen.HarmonicBalance(6+s, 2+s%4, 3, rng)
	case 3:
		return matgen.Circuit(10+4*s, 3, 1+s%3, rng)
	default:
		a, _ := randomSystem(rng, 8+6*s, 0.08)
		return a
	}
}

// plantValues overwrites values of a as the plant bits ask: a few
// diagonals zero or tiny, and a few entries NaN, the default NaN (made
// as Inf·0) or ±Inf.
func plantValues(a *sparse.CSC, plant uint8, rng *rand.Rand) {
	inf, zero := math.Inf(1), 0.0
	nonFinite := []float64{math.NaN(), inf * zero, inf, -inf}
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			diag := a.RowInd[p] == j
			switch u := rng.Intn(16); {
			case diag && u == 0 && plant&plantZeroDiag != 0:
				a.Val[p] = 0
			case diag && u == 1 && plant&plantTinyPivots != 0:
				a.Val[p] = 1e-20 * (rng.Float64() - 0.5)
			case u == 2 && plant&plantNonFinite != 0 && rng.Intn(8) == 0:
				a.Val[p] = nonFinite[rng.Intn(len(nonFinite))]
			}
		}
	}
}

// FuzzFactorizeEnginesAgree is the differential test of the column
// engines: a random matgen system, with zero diagonals, tiny pivots and
// non-finite entries planted as the fuzzer picks, factored by Factorize,
// by the static schedule at two and three workers and by the plain loop.
// All four must give the same bits — factors, Fingerprint(), PivotMods,
// RecipGrowth — or the same *ZeroPivotError. `make fuzz-kernels` fuzzes
// it; `go test` runs its seeds.
func FuzzFactorizeEnginesAgree(f *testing.F) {
	for class := uint8(0); class < 5; class++ {
		f.Add(class, uint8(6+3*class), uint8(0), uint64(class)+1)
		f.Add(class, uint8(11), uint8(plantZeroDiag|plantTinyPivots|plantRelax), uint64(class)+10)
		f.Add(class, uint8(9), uint8(plantNonFinite|plantZeroDiag), uint64(class)+20)
	}
	f.Add(uint8(2), uint8(15), uint8(plantZeroDiag|plantAggressive), uint64(31))
	f.Add(uint8(0), uint8(12), uint8(plantZeroDiag|plantNoReplace), uint64(32))
	f.Add(uint8(1), uint8(14), uint8(plantNonFinite|plantTinyPivots|plantAggressive|plantRelax), uint64(33))
	f.Fuzz(func(t *testing.T, class, size, plant uint8, seed uint64) {
		rng := rand.New(rand.NewSource(int64(seed)))
		a := matgen.EnsureFullRank(fuzzSystem(class, size, rng), rng)
		plantValues(a, plant, rng)
		so := symbolic.Options{MaxSuper: 1 + int(seed%24)}
		if plant&plantRelax != 0 {
			so.Relax = 4
		}
		sym, err := symbolic.Factorize(a, so)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{
			ReplaceTinyPivot: plant&plantNoReplace == 0,
			Aggressive:       plant&plantAggressive != 0,
		}
		want, wantErr := plainLoopFactorize(a, sym, opts)
		same := func(label string, got *Factors, err error) {
			t.Helper()
			if wantErr != nil || err != nil {
				var ge, we *ZeroPivotError
				if !errors.As(err, &ge) || !errors.As(wantErr, &we) || *ge != *we {
					t.Fatalf("%s: error %v, plain loop %v", label, err, wantErr)
				}
				return
			}
			SameFactors(t, label, got, want)
		}
		got, err := Factorize(a, sym, opts)
		same("Factorize", got, err)
		for _, workers := range []int{2, 3} {
			got, err := NewSchedule(a, sym, workers).Factorize(a, opts)
			same(fmt.Sprintf("Schedule workers=%d", workers), got, err)
		}
	})
}
