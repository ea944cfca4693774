package refine_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gesp/internal/core"
	"gesp/internal/faultsim"
	"gesp/internal/lu"
	"gesp/internal/matgen"
	"gesp/internal/refine"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// refineOracle is the per-vector refinement loop as it stood before the
// fused kernel and the blocked loop: r and |A|·|x| from sparse.CSC's own
// sweeps (or the two-array compensated residual), one Solve per step. It
// carries the one intended change, the NaN stop.
func refineOracle(a *sparse.CSC, sys refine.System, x, b []float64, opts refine.Options) refine.Stats {
	maxIter := opts.MaxIter
	if maxIter <= 0 {
		maxIter = 10
	}
	tol := opts.BerrTol
	if tol <= 0 {
		tol = lu.Eps
	}
	n := len(b)
	r := make([]float64, n)
	absx := make([]float64, n)
	den := make([]float64, n)
	berrOf := func() float64 {
		if opts.ExtraPrecision {
			sum := make([]float64, n)
			comp := make([]float64, n)
			for j := 0; j < a.Cols; j++ {
				xj := x[j]
				if xj == 0 {
					continue
				}
				for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
					i := a.RowInd[k]
					p := a.Val[k] * xj
					e := math.FMA(a.Val[k], xj, -p)
					s := sum[i] + p
					bv := s - sum[i]
					err := (sum[i] - (s - bv)) + (p - bv)
					sum[i] = s
					comp[i] += err + e
				}
			}
			for i := 0; i < n; i++ {
				r[i] = (b[i] - sum[i]) - comp[i]
			}
		} else {
			a.Residual(r, b, x)
		}
		for i, v := range x {
			absx[i] = math.Abs(v)
		}
		a.AbsMatVec(den, absx)
		be, inf := 0.0, false
		for i := 0; i < n; i++ {
			d := den[i] + math.Abs(b[i])
			ri := math.Abs(r[i])
			switch {
			case math.IsNaN(d) || math.IsNaN(ri):
				return math.NaN()
			case d > 0:
				if q := ri / d; q > be {
					be = q
				}
			case ri > 0:
				inf = true
			}
		}
		if inf {
			return math.Inf(1)
		}
		return be
	}
	st := refine.Stats{}
	prev := berrOf()
	st.Berrs = append(st.Berrs, prev)
	st.FinalBerr = prev
	if prev <= tol {
		st.Converged = true
		return st
	}
	for st.Steps < maxIter && !math.IsNaN(prev) {
		sys.Solve(r)
		for i := 0; i < n; i++ {
			x[i] += r[i]
		}
		st.Steps++
		be := berrOf()
		st.Berrs = append(st.Berrs, be)
		st.FinalBerr = be
		if be <= tol {
			st.Converged = true
			return st
		}
		if be > prev/2 {
			return st
		}
		prev = be
	}
	return st
}

// sameFloat is bit equality, with any two NaNs equal (a NaN's payload
// may depend on operand order, which the kernels do not fix).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameStats(a, b refine.Stats) error {
	if a.Steps != b.Steps || a.Converged != b.Converged || !sameFloat(a.FinalBerr, b.FinalBerr) || len(a.Berrs) != len(b.Berrs) {
		return fmt.Errorf("stats differ: %+v vs %+v", a, b)
	}
	for i := range a.Berrs {
		if !sameFloat(a.Berrs[i], b.Berrs[i]) {
			return fmt.Errorf("Berrs[%d] differ: %x vs %x", i, a.Berrs[i], b.Berrs[i])
		}
	}
	return nil
}

func sameVec(a, b []float64) error {
	for i := range a {
		if !sameFloat(a[i], b[i]) {
			return fmt.Errorf("entry %d differs: %x vs %x", i, a[i], b[i])
		}
	}
	return nil
}

// refCase is one system to refine on: a is the matrix whose backward
// error is watched, sys what the corrections are solved with.
type refCase struct {
	name string
	a    *sparse.CSC
	sys  refine.System
}

func factorRaw(t testing.TB, a *sparse.CSC, opts lu.Options) *lu.Factors {
	t.Helper()
	sym, err := symbolic.Factorize(a, symbolic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := lu.Factorize(a, sym, opts)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// refCases builds the property test's systems: the three benchmark
// classes and testbed matrices through the full GESP analysis, faultsim
// systems factored as they are, stale factors (including a donor's
// scalings and factors against a variant's values, the serving layer's
// reuse case, which stagnates), and an SMW-recovered system.
func refCases(t testing.TB) []refCase {
	t.Helper()
	var cs []refCase
	gesp := func(name string, a *sparse.CSC) *core.Solver {
		s, err := core.New(a, core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cs = append(cs, refCase{name, s.PermutedMatrix(), s.Factors()})
		return s
	}
	rng := rand.New(rand.NewSource(19980707))
	gesp("mesh", matgen.EnsureFullRank(matgen.ConvectionDiffusion2D(14, 14, 1.5, 0.5, rng), rng))
	gesp("fill", matgen.EnsureFullRank(matgen.ConvectionDiffusion3D(6, 6, 3, 1, 1, 1, 1, rng), rng))
	circuit := matgen.EnsureFullRank(matgen.HarmonicBalance(24, 8, 4, rng), rng)
	donor := gesp("circuit", circuit)
	for _, name := range []string{"AF23560", "EX11", "TWOTONE", "MEMPLUS", "GEMAT11", "SHERMAN5", "WANG4", "LNS_3937", "ORSIRR_1", "WEST2021"} {
		m, ok := matgen.Lookup(name)
		if !ok {
			t.Fatalf("unknown testbed matrix %s", name)
		}
		gesp(name, m.Generate(0.1))
	}
	for seed := int64(1); seed <= 4; seed++ {
		inj := faultsim.New(seed)
		a := inj.WellConditioned(40+int(seed)*17, 0.08)
		cs = append(cs, refCase{fmt.Sprintf("well%d", seed), a, factorRaw(t, a, lu.Options{ReplaceTinyPivot: true})})
		ill := inj.IllConditioned(60, math.Pow(10, float64(2*seed)))
		cs = append(cs, refCase{fmt.Sprintf("ill%d", seed), ill, factorRaw(t, ill, lu.Options{ReplaceTinyPivot: true})})
		// Stale factors: corrections solved with A's factors, berr watched
		// on a perturbed A — slow contraction, then stagnation as rel grows.
		stale := inj.PerturbValues(a, 0.02*float64(seed*seed))
		cs = append(cs, refCase{fmt.Sprintf("stale%d", seed), stale, factorRaw(t, a, lu.Options{ReplaceTinyPivot: true})})
	}
	// Stale donor scalings: a variant refactored under the donor's
	// analysis is watched, but corrected with the donor's own factors.
	variant := faultsim.New(9).PerturbValues(circuit, 0.1)
	reused, err := core.NewWithSymbolic(variant, donor)
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, refCase{"stale-donor", reused.PermutedMatrix(), donor.Factors()})
	// A replaced pivot: the perturbed factors alone stagnate, SMW recovers.
	ns := faultsim.New(5).NearSingular(50, 1e-13)
	fns := factorRaw(t, ns, lu.Options{ReplaceTinyPivot: true, Aggressive: true})
	if fns.TinyPivots == 0 {
		t.Fatal("near-singular system replaced no pivot")
	}
	cs = append(cs, refCase{"perturbed", ns, fns})
	smw, err := refine.NewSMWSolver(fns)
	if err != nil {
		t.Fatal(err)
	}
	cs = append(cs, refCase{"smw", ns, smw})
	return cs
}

// batchFor builds nrhs right-hand sides and initial solutions for c,
// packed with stride n, cycling through the kinds of vector a batch can
// hold: a consistent b = A·x, a zero b, a vector handed over already
// refined (converges at step 0), and an arbitrary b.
func batchFor(c refCase, nrhs int, rng *rand.Rand) (x, b []float64) {
	n := c.a.Rows
	x = make([]float64, n*nrhs)
	b = make([]float64, n*nrhs)
	xt := make([]float64, n)
	for v := 0; v < nrhs; v++ {
		xv, bv := x[v*n:(v+1)*n], b[v*n:(v+1)*n]
		switch v % 4 {
		case 0, 2:
			for i := range xt {
				xt[i] = 0.5 + rng.Float64()
			}
			c.a.MatVec(bv, xt)
		case 1:
			// zero
		case 3:
			for i := range bv {
				bv[i] = rng.NormFloat64()
			}
		}
		copy(xv, bv)
		c.sys.Solve(xv)
		if v%4 == 2 {
			refine.Refine(c.a, c.sys, xv, bv, refine.Options{MaxIter: 30})
		}
	}
	return x, b
}

// TestRefineMultiMatchesPerVector is the blocked loop's contract: every
// bit of every vector's iterates and Stats is what refining that vector
// alone gives — by Refine, and by the loop this one replaced.
func TestRefineMultiMatchesPerVector(t *testing.T) {
	cases := refCases(t)
	if len(cases) < 23 {
		t.Fatalf("only %d systems", len(cases))
	}
	variants := []refine.Options{{}, {MaxIter: 1}, {ExtraPrecision: true}}
	var step0, cut, stagnated, multiStep int
	for ci, c := range cases {
		n := c.a.Rows
		for _, nrhs := range []int{1, 3, 4, 5, 8, 16, 17} {
			x0, b := batchFor(c, nrhs, rand.New(rand.NewSource(int64(100*ci+nrhs))))
			for _, opts := range variants {
				x := append([]float64(nil), x0...)
				sts := refine.RefineMulti(c.a, c.sys, x, b, nrhs, opts)
				if len(sts) != nrhs {
					t.Fatalf("%s: %d stats for %d vectors", c.name, len(sts), nrhs)
				}
				for v := 0; v < nrhs; v++ {
					bv := b[v*n : (v+1)*n]
					alone := append([]float64(nil), x0[v*n:(v+1)*n]...)
					st := refine.Refine(c.a, c.sys, alone, bv, opts)
					old := append([]float64(nil), x0[v*n:(v+1)*n]...)
					ost := refineOracle(c.a, c.sys, old, bv, opts)
					for _, cmp := range []struct {
						what string
						x    []float64
						st   refine.Stats
					}{{"Refine", alone, st}, {"the pre-blocking loop", old, ost}} {
						if err := sameVec(x[v*n:(v+1)*n], cmp.x); err != nil {
							t.Fatalf("%s nrhs=%d opts=%+v vector %d vs %s: x: %v", c.name, nrhs, opts, v, cmp.what, err)
						}
						if err := sameStats(sts[v], cmp.st); err != nil {
							t.Fatalf("%s nrhs=%d opts=%+v vector %d vs %s: %v", c.name, nrhs, opts, v, cmp.what, err)
						}
					}
					maxIter := 10
					if opts.MaxIter > 0 {
						maxIter = opts.MaxIter
					}
					switch {
					case st.Converged && st.Steps == 0:
						step0++
					case !st.Converged && st.Steps == maxIter:
						cut++
					case !st.Converged:
						stagnated++
					}
					if st.Steps >= 2 {
						multiStep++
					}
				}
			}
		}
	}
	// The equality above is only worth something if every way a vector
	// leaves the active set actually occurred.
	if step0 == 0 || cut == 0 || stagnated == 0 || multiStep == 0 {
		t.Fatalf("termination paths not all exercised: step-0 %d, MaxIter %d, stagnated %d, ≥2 steps %d", step0, cut, stagnated, multiStep)
	}
	t.Logf("%d systems: %d vectors converged at step 0, %d cut by MaxIter, %d stagnated, %d took ≥ 2 steps", len(cases), step0, cut, stagnated, multiStep)
}

// FuzzRefineMultiMatchesRefine drives the same equality from fuzzed
// shapes: system size and seed, batch width, how stale the factors are
// (non-finite staleness poisons the watched matrix, so the NaN and Inf
// exits are reached too), and the option bits.
func FuzzRefineMultiMatchesRefine(f *testing.F) {
	f.Add(int64(1), uint8(30), uint8(5), 0.0, uint8(0))
	f.Add(int64(2), uint8(60), uint8(17), 0.3, uint8(1))
	f.Add(int64(3), uint8(9), uint8(4), 5.0, uint8(2))
	f.Add(int64(4), uint8(40), uint8(8), math.Inf(1), uint8(3))
	f.Add(int64(5), uint8(2), uint8(1), math.NaN(), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, size, width uint8, rel float64, bits uint8) {
		n := 2 + int(size)%80
		nrhs := 1 + int(width)%20
		inj := faultsim.New(seed)
		base := inj.WellConditioned(n, 0.1)
		c := refCase{"fuzz", inj.PerturbValues(base, rel), factorRaw(t, base, lu.Options{ReplaceTinyPivot: true})}
		opts := refine.Options{ExtraPrecision: bits&1 != 0}
		if bits&2 != 0 {
			opts.MaxIter = 1 + int(bits>>2)%4
		}
		x0, b := batchFor(c, nrhs, rand.New(rand.NewSource(seed)))
		x := append([]float64(nil), x0...)
		sts := refine.RefineMulti(c.a, c.sys, x, b, nrhs, opts)
		for v := 0; v < nrhs; v++ {
			alone := append([]float64(nil), x0[v*n:(v+1)*n]...)
			st := refine.Refine(c.a, c.sys, alone, b[v*n:(v+1)*n], opts)
			if err := sameVec(x[v*n:(v+1)*n], alone); err != nil {
				t.Fatalf("vector %d of %d: x: %v", v, nrhs, err)
			}
			if err := sameStats(sts[v], st); err != nil {
				t.Fatalf("vector %d of %d: %v", v, nrhs, err)
			}
			if st.Converged && !(st.FinalBerr <= lu.Eps) {
				t.Fatalf("vector %d converged at berr %g", v, st.FinalBerr)
			}
		}
	})
}

// TestNaNIsNotConvergence: NaN fails every comparison, so a poisoned
// iterate used to skip both berr cases and come back as berr 0,
// Converged.
func TestNaNIsNotConvergence(t *testing.T) {
	a := sparse.Identity(2)
	f := factorRaw(t, a, lu.Options{})
	nan := math.NaN()
	b := []float64{1, 2}
	if be := refine.Berr(a, []float64{nan, nan}, b); !math.IsNaN(be) {
		t.Errorf("Berr of an all-NaN x = %g, want NaN", be)
	}
	if be := refine.Berr(a, []float64{1, nan}, b); !math.IsNaN(be) {
		t.Errorf("Berr of a half-NaN x = %g, want NaN", be)
	}
	st := refine.Refine(a, f, []float64{nan, nan}, b, refine.Options{})
	if st.Converged || !math.IsNaN(st.FinalBerr) || st.Steps != 0 {
		t.Errorf("Refine on an all-NaN x: %+v, want not converged, berr NaN, 0 steps", st)
	}
	// In a batch the poisoned vector stops alone.
	x := []float64{0.5, 1, nan, nan, 3, 4}
	sts := refine.RefineMulti(a, f, x, []float64{1, 2, 1, 2, 3, 4}, 3, refine.Options{})
	if sts[1].Converged || !math.IsNaN(sts[1].FinalBerr) {
		t.Errorf("poisoned vector: %+v", sts[1])
	}
	if !sts[0].Converged || !sts[2].Converged || x[0] != 1 || x[1] != 2 || x[4] != 3 || x[5] != 4 {
		t.Errorf("batch-mates disturbed: %+v %+v x=%v", sts[0], sts[2], x)
	}
}

// TestRefineAllocations pins the fused kernel at zero allocations and the
// blocked loop at a count that does not grow with the steps it takes.
func TestRefineAllocations(t *testing.T) {
	inj := faultsim.New(21)
	a := inj.WellConditioned(80, 0.08)
	f := factorRaw(t, a, lu.Options{ReplaceTinyPivot: true})
	n := a.Rows
	for _, extra := range []bool{false, true} {
		r, work, x, b := make([]float64, n), make([]float64, 2*n), make([]float64, n), make([]float64, n)
		for i := range x {
			x[i], b[i] = 1, 2
		}
		if allocs := testing.AllocsPerRun(10, func() { refine.ResidualBerr(a, r, work, x, b, extra) }); allocs != 0 {
			t.Errorf("ResidualBerr(extra=%v) allocates %v times", extra, allocs)
		}
	}

	const nrhs = 16
	stale := refCase{"stale", inj.PerturbValues(a, 0.05), f}
	healthy := refCase{"healthy", a, f}
	count := func(c refCase) (allocs float64, steps int) {
		x0, b := batchFor(c, nrhs, rand.New(rand.NewSource(3)))
		x := make([]float64, len(x0))
		allocs = testing.AllocsPerRun(5, func() {
			copy(x, x0)
			for _, st := range refine.RefineMulti(c.a, c.sys, x, b, nrhs, refine.Options{}) {
				steps = max(steps, st.Steps)
			}
		})
		return allocs, steps
	}
	few, fewSteps := count(healthy)
	many, manySteps := count(stale)
	if manySteps < fewSteps+2 {
		t.Fatalf("stale system took %d steps against %d: not a longer loop", manySteps, fewSteps)
	}
	// The Stats, the residual block with its scratch, the berr histories
	// and the active set.
	if few != 4 || many != 4 {
		t.Errorf("RefineMulti allocates %v times over %d steps and %v over %d, want 4 and 4", few, fewSteps, many, manySteps)
	}
}
