package main

import (
	"math"
	"testing"

	"gesp/internal/core"
)

// The oracle must accept what the solver returns and reject a solution
// that is wrong in one entry, too short, or not finite. A check that
// accepts everything would let every workload report failed = 0.
func TestOracleRejectsWrongSolutions(t *testing.T) {
	for c := 0; c < numClasses; c++ {
		a := variant(pattern(c, smokeSizes.cold[c], 0), stream(3, int64(c)))
		b, xTrue := rhs(a, stream(3, int64(10+c)))
		s, err := core.New(a, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		x, err := s.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		name := classNames[c]
		if !accept(a, x, b) {
			t.Errorf("%s: the solver's solution is rejected (berr %.3g)", name, backwardError(a, x, b))
		}
		if !acceptForward(x, xTrue) {
			t.Errorf("%s: the solver's solution is rejected on forward error %.3g", name, forwardError(x, xTrue))
		}

		perturbed := append([]float64(nil), x...)
		perturbed[len(x)/2] *= 1 + 1e-6
		if accept(a, perturbed, b) {
			t.Errorf("%s: a solution with one entry off by 1e-6 is accepted (berr %.3g)", name, backwardError(a, perturbed, b))
		}
		perturbed[len(x)/2] = x[len(x)/2] * (1 + 1e-3)
		if acceptForward(perturbed, xTrue) {
			t.Errorf("%s: a solution with one entry off by 1e-3 passes the forward check", name)
		}

		truncated := x[:len(x)-1]
		if accept(a, truncated, b) || acceptForward(truncated, xTrue) {
			t.Errorf("%s: a truncated solution is accepted", name)
		}
		if accept(a, nil, b) || acceptForward(nil, xTrue) {
			t.Errorf("%s: a missing solution is accepted", name)
		}

		nan := append([]float64(nil), x...)
		nan[0] = math.NaN()
		if accept(a, nan, b) || acceptForward(nan, xTrue) {
			t.Errorf("%s: a solution with a NaN is accepted", name)
		}
	}
}

// The oracle's SpMV is its own; it must agree with the definition on a
// matrix small enough to check by hand.
func TestSpMV(t *testing.T) {
	a := pattern(mesh, 2, 0) // 4×4
	x := []float64{1, -2, 3, 0.5}
	y := spmv(a, x)
	for i := 0; i < a.Rows; i++ {
		want := 0.0
		for j := 0; j < a.Cols; j++ {
			want += a.At(i, j) * x[j]
		}
		if math.Abs(y[i]-want) > 1e-14*math.Max(1, math.Abs(want)) {
			t.Errorf("row %d: spmv gives %v, the definition %v", i, y[i], want)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([..], n=4) on these ten values gives
	// [2.75, 5.5, 8.25]; spread = 5.5/5.5.
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	v, pct := tail([]float64{5, 1, 3})
	if math.Abs(v-5) > 0 || math.Abs(pct-100) > 0 {
		t.Errorf("tail of three samples = %v at p%v, want the maximum at p100", v, pct)
	}
	big := make([]float64, 100)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, pct := tail(big); math.Abs(v-90) > 0 || math.Abs(pct-90) > 0 {
		t.Errorf("tail of 1..100 = %v at p%v, want 90 at p90 (ten samples beyond)", v, pct)
	}
}
