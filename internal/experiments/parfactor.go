package experiments

import (
	"fmt"
	"io"
	"time"

	"gesp/internal/core"
	"gesp/internal/dist"
	"gesp/internal/lu"
	"gesp/internal/matgen"
	"gesp/internal/sched"
)

// ParFactorRow is one machine-readable measurement of a factorization
// engine run: the schema of cmd/gesp-bench's -json output, intended for
// a BENCH_*.json performance trajectory tracked across revisions.
// SimulatedNs is nonzero only for the mpisim variant (virtual-clock
// time); WallNs is real elapsed time for every variant.
type ParFactorRow struct {
	Matrix      string  `json:"matrix"`
	Variant     string  `json:"variant"` // "scalar-serial" | "blocked-serial" | "dag-parallel" | "mpisim"
	Workers     int     `json:"workers"`
	WallNs      int64   `json:"wall_ns"`
	SimulatedNs int64   `json:"simulated_ns"`
	Mflops      float64 `json:"mflops"`
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
// testbed matrices: the scalar serial reference, the serial blocked
// engine, the DAG-scheduled shared-memory engine at each worker count,
// and the simulated distributed engine at the largest worker count.
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

		ns, err = minWall(reps, func() error { _, _, err := dist.FactorizeBlocked(ap, sym, opts); return err })
		if err != nil {
			return nil, fmt.Errorf("experiments: %s blocked: %w", name, err)
		}
		rows = append(rows, ParFactorRow{Matrix: name, Variant: "blocked-serial", Workers: 1, WallNs: ns, Mflops: mflops(ns)})

		maxW := 1
		for _, w := range workerCounts {
			if w > maxW {
				maxW = w
			}
			ns, err = minWall(reps, func() error { _, _, err := sched.Factorize(ap, sym, opts, w); return err })
			if err != nil {
				return nil, fmt.Errorf("experiments: %s workers=%d: %w", name, w, err)
			}
			rows = append(rows, ParFactorRow{Matrix: name, Variant: "dag-parallel", Workers: w, WallNs: ns, Mflops: mflops(ns)})
		}

		// The simulated distributed engine at the same concurrency, for
		// the virtual-clock trajectory (Tables 3-5 machinery).
		rhs := matgen.OnesRHS(ap)
		t0 := time.Now()
		res, err := dist.Solve(ap, sym, rhs, dist.Options{
			Procs: maxW, Pipeline: true, EDAGPrune: true, ReplaceTinyPivot: true,
		})
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

// PrintParFactor renders the sweep as a human-readable table (the
// non-JSON output of gesp-bench -exp parfactor).
//
//gesp:errok
func PrintParFactor(w io.Writer, rows []ParFactorRow) {
	fmt.Fprintln(w, "Factorization engines (wall-clock; mpisim reports the virtual clock too):")
	fmt.Fprintf(w, "%-10s %-14s %8s %12s %12s %10s\n", "Matrix", "Variant", "workers", "wall(ms)", "sim(ms)", "Mflops")
	for _, r := range rows {
		sim := "-"
		if r.SimulatedNs > 0 {
			sim = fmt.Sprintf("%.3f", float64(r.SimulatedNs)/1e6)
		}
		fmt.Fprintf(w, "%-10s %-14s %8d %12.3f %12s %10.1f\n",
			r.Matrix, r.Variant, r.Workers, float64(r.WallNs)/1e6, sim, r.Mflops)
	}
}
