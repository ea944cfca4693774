// gesp-benchdump measures the kernel-campaign benchmark suite and
// writes a schema-versioned BENCH_<n>.json snapshot: micro-kernel
// timings at supernodal shapes, engine factorization rates, the batched
// solve, and the simulated distributed Mflops. `make bench` uses it to
// regenerate the committed BENCH_0.json baseline; CI uses -quick for a
// smoke snapshot that gesp-perfdiff gates allocs-only against the
// baseline.
package main

import (
	"flag"
	"fmt"
	"os"

	"gesp/internal/perf"
)

func main() {
	out := flag.String("o", "BENCH_0.json", "output snapshot path")
	scale := flag.Float64("scale", 1.0, "testbed matrix scale for the engine benchmarks")
	quick := flag.Bool("quick", false, "single-repetition smoke run (wiring and allocs, not stable timings)")
	flag.Parse()

	f, err := perf.Run(*scale, *quick)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gesp-benchdump:", err)
		os.Exit(1)
	}
	if err := perf.WriteFile(*out, f); err != nil {
		fmt.Fprintln(os.Stderr, "gesp-benchdump:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (schema %d, %s/%s, scale %g, quick=%v)\n",
		*out, f.SchemaVersion, f.GoVersion, f.GOARCH, f.Scale, f.Quick)
	fmt.Printf("%-40s %-8s %4s %14s %10s %10s\n", "name", "class", "hot", "ns/op", "allocs/op", "Mflops")
	for _, e := range f.Entries {
		hot := ""
		if e.HotPath {
			hot = "yes"
		}
		allocs := "-"
		if e.AllocsPerOp >= 0 {
			allocs = fmt.Sprintf("%.1f", e.AllocsPerOp)
		}
		mf := "-"
		if e.Mflops > 0 {
			mf = fmt.Sprintf("%.1f", e.Mflops)
		}
		fmt.Printf("%-40s %-8s %4s %14.0f %10s %10s\n", e.Name, e.Class, hot, e.NsPerOp, allocs, mf)
	}
}
