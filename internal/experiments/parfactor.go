package experiments

import (
	"fmt"
	"time"

	"gesp/internal/core"
	"gesp/internal/dist"
	"gesp/internal/lu"
	"gesp/internal/matgen"
)

// ParFactorRow is one measurement of a factorization engine run.
// SimulatedNs is nonzero only for the mpisim variant (virtual-clock
// time); WallNs is real elapsed time for every variant.
type ParFactorRow struct {
	Matrix      string
	Variant     string // "scalar-serial" | "scalar-parallel" | "mpisim"
	Workers     int
	WallNs      int64
	SimulatedNs int64
	Mflops      float64
}

// minWall returns the best of reps timed runs of f in nanoseconds.
func minWall(reps int, f func() error) (int64, error) {
	best := int64(0)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ns := time.Since(t0).Nanoseconds()
		if best == 0 || ns < best {
			best = ns
		}
	}
	return best, nil
}

// ParallelFactorSweep benchmarks the factorization engines on the named
// testbed matrices: the scalar serial reference, the same engine on its
// static parallel schedule at each worker count (the schedule is built
// once per analysis, outside the timing, as core builds it), and the
// simulated distributed engine at the largest worker count.
func ParallelFactorSweep(names []string, scale float64, workerCounts []int) ([]ParFactorRow, error) {
	const reps = 3
	var rows []ParFactorRow
	for _, name := range names {
		m, ok := matgen.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("experiments: unknown testbed matrix %q", name)
		}
		a := m.Generate(scale)
		s, err := core.NewAnalysis(a, core.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		ap, sym := s.PermutedMatrix(), s.Symbolic()
		opts := lu.Options{ReplaceTinyPivot: true}
		mflops := func(wallNs int64) float64 {
			if wallNs == 0 {
				return 0
			}
			return float64(sym.Flops) / (float64(wallNs) / 1e9) / 1e6
		}

		ns, err := minWall(reps, func() error { _, err := lu.Factorize(ap, sym, opts); return err })
		if err != nil {
			return nil, fmt.Errorf("experiments: %s scalar: %w", name, err)
		}
		rows = append(rows, ParFactorRow{Matrix: name, Variant: "scalar-serial", Workers: 1, WallNs: ns, Mflops: mflops(ns)})

		maxW := 1
		for _, w := range workerCounts {
			if w > maxW {
				maxW = w
			}
			sc := lu.NewSchedule(ap, sym, w)
			ns, err = minWall(reps, func() error { _, err := sc.Factorize(ap, opts); return err })
			if err != nil {
				return nil, fmt.Errorf("experiments: %s workers=%d: %w", name, w, err)
			}
			rows = append(rows, ParFactorRow{Matrix: name, Variant: "scalar-parallel", Workers: w, WallNs: ns, Mflops: mflops(ns)})
		}

		// The simulated distributed engine at the same concurrency, for
		// the virtual-clock trajectory (Tables 3-5 machinery).
		rhs := matgen.OnesRHS(ap)
		t0 := time.Now()
		res, err := dist.Solve(ap, dist.BuildStructure(sym), rhs, pipelined(maxW))
		if err != nil {
			return nil, fmt.Errorf("experiments: %s mpisim: %w", name, err)
		}
		rows = append(rows, ParFactorRow{
			Matrix: name, Variant: "mpisim", Workers: maxW,
			WallNs:      time.Since(t0).Nanoseconds(),
			SimulatedNs: int64(res.Factor.SimTime * 1e9),
			Mflops:      res.Factor.Mflops,
		})
	}
	return rows, nil
}

// FormatParFactor lays out the engine sweep.
func FormatParFactor(rows []ParFactorRow) Table {
	return tabulate(rows, func(r ParFactorRow) []any {
		sim := any("-")
		if r.SimulatedNs > 0 {
			sim = float64(r.SimulatedNs) / 1e6
		}
		return []any{r.Matrix, r.Variant, r.Workers, float64(r.WallNs) / 1e6, sim, r.Mflops}
	}, []Col{{"Matrix", -10, ""}, {"Variant", -14, ""}, {"workers", 8, ""}, {"wall(ms)", 12, "%.3f"},
		{"sim(ms)", 12, "%.3f"}, {"Mflops", 10, "%.1f"}},
		"Factorization engines (wall-clock; mpisim reports the virtual clock too):")
}
