// Command gesp-bench regenerates the tables and figures of "Making
// Sparse Gaussian Elimination Scalable by Static Pivoting" (Li & Demmel,
// SC 1998) on the synthetic testbed. See DESIGN.md for the experiment
// index and EXPERIMENTS.md for recorded paper-vs-measured results.
//
// Usage:
//
//	gesp-bench -exp all                 # everything (slow)
//	gesp-bench -exp fig4 -scale 0.5     # one experiment, custom scale
//	gesp-bench -exp table3 -procs 4,16,64
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"gesp/internal/experiments"
	"gesp/internal/fleetha"
	"gesp/internal/fleetrpc"
)

// main renders benchmark reports to stdout; a failed terminal write has
// no recovery beyond the OS reporting it on exit.
//
//gesp:errok
func main() {
	// The fleetproc and ha experiments re-execute this binary as shard
	// or coordinator processes; in a child these serve and never return.
	fleetha.RunCoordinatorIfChild()
	fleetrpc.RunShardIfChild()
	log.SetFlags(0)
	log.SetPrefix("gesp-bench: ")
	var (
		scale    = flag.Float64("scale", 0.5, "matrix scale factor (1.0 = larger, slower)")
		procsF   = flag.String("procs", "4,8,16,32,64,128,256,512", "processor sweep for tables 3-5")
		p5       = flag.Int("p5", 64, "processor count for table 5 (paper: 64)")
		jsonOut  = flag.Bool("json", false, "emit the parfactor sweep as machine-readable JSON on stdout (matrix, variant, workers, wall_ns, simulated_ns, mflops) and exit")
		workersF = flag.String("workers", "1,2,4,8", "worker sweep for the parfactor experiment")
		matsF    = flag.String("matrices", "AF23560,BBMAT,EX11", "matrices for the parfactor experiment")

		serveClients  = flag.Int("serve-clients", 16, "closed-loop clients for the serve experiment")
		serveDuration = flag.Duration("serve-duration", time.Second, "measurement window per arm of the serve experiment")

		fleetWorkers  = flag.Int("fleet-workers", 16, "closed-loop workers for the fleet experiment")
		fleetDuration = flag.Duration("fleet-duration", time.Second, "measurement window per arm of the fleet experiment")
	)
	w := os.Stdout
	var (
		procs, workers []int
		serial         []experiments.SerialRow
		scaling        []experiments.ScalingRow
	)
	// must ends the run on any experiment's error.
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	parfactor := func() []experiments.ParFactorRow {
		rows, err := experiments.ParallelFactorSweep(splitNames(*matsF), *scale, workers)
		must(err)
		return rows
	}

	// The experiment table, in output order: the one place an experiment
	// is named. group is the -exp alias that also selects it; needs is
	// the shared sweep (run once, before any section) it prints from.
	const (
		needSerial = iota + 1
		needScaling
	)
	type experiment struct {
		name, group string
		needs       int
		run         func()
	}
	table := []experiment{
		{"table1", "serial", 0, func() { experiments.PrintTable1(w, *scale) }},
		{"fig2", "serial", needSerial, func() { experiments.PrintFigure2(w, serial) }},
		{"fig3", "serial", needSerial, func() { experiments.PrintFigure3(w, serial) }},
		{"fig4", "serial", needSerial, func() { experiments.PrintFigure4(w, serial) }},
		{"fig5", "serial", needSerial, func() { experiments.PrintFigure5(w, serial) }},
		{"fig6", "serial", needSerial, func() { experiments.PrintFigure6(w, serial) }},
		{"nopivot", "serial", 0, func() { experiments.PrintNoPivot(w, *scale) }},
		{"table2", "scaling", 0, func() { experiments.PrintTable2(w, *scale) }},
		{"table3", "scaling", needScaling, func() { experiments.PrintTable3(w, scaling, procs) }},
		{"table4", "scaling", needScaling, func() { experiments.PrintTable4(w, scaling, procs) }},
		{"table5", "scaling", needScaling, func() { experiments.PrintTable5(w, scaling, procs, *p5) }},
		{"edag", "", 0, func() {
			r, err := experiments.EDAGAblation("AF23560", *scale, 32)
			must(err)
			experiments.PrintAblation(w, "EDAG-pruned communication (paper: 16% fewer messages, AF23560, 32 PEs)", r)
		}},
		{"pipeline", "", 0, func() {
			r, err := experiments.PipelineAblation("AF23560", *scale, 64)
			must(err)
			experiments.PrintAblation(w, "Pipelined factorization (paper: 10-40% faster on 64 PEs)", r)
		}},
		{"blocksize", "", 0, func() {
			res, err := experiments.BlockSizeAblation("AF23560", *scale, 16, []int{4, 8, 16, 24, 32, 64, 128})
			must(err)
			fmt.Fprintln(w, "Maximum block size sweep (paper: 20-30 best on the T3E, 24 used):")
			fmt.Fprintf(w, "%8s %12s %10s\n", "maxSuper", "factor(s)", "avgSup")
			for _, r := range res {
				fmt.Fprintf(w, "%8d %12.4f %10.1f\n", r.MaxSuper, r.FactorTime, r.AvgSuper)
			}
		}},
		{"ordering", "", 0, func() {
			rows, err := experiments.OrderingAblation(
				[]string{"AF23560", "MEMPLUS", "SHERMAN4", "TWOTONE", "WANG4"}, *scale)
			must(err)
			fmt.Fprintln(w, "Fill-reducing ordering comparison, nnz(L+U):")
			fmt.Fprintf(w, "%-10s %12s %12s %12s %12s %12s\n", "Matrix", "mmd-ata", "mmd-at+a", "rcm", "nd-ata", "natural")
			for _, r := range rows {
				fmt.Fprintf(w, "%-10s %12d %12d %12d %12d %12d\n",
					r.Name, r.Fill["mmd-ata"], r.Fill["mmd-at+a"], r.Fill["rcm"], r.Fill["nd-ata"], r.Fill["natural"])
			}
		}},
		{"relax", "", 0, func() {
			res, err := experiments.RelaxAblation("TWOTONE", *scale, 16, []int{0, 1, 2, 4, 8})
			must(err)
			fmt.Fprintln(w, "Supernode amalgamation sweep (paper 5: amalgamate small supernodes):")
			fmt.Fprintf(w, "%8s %10s %10s %12s\n", "relax", "avgSup", "#sup", "factor(s)")
			for _, r := range res {
				fmt.Fprintf(w, "%8d %10.2f %10d %12.4f\n", r.Relax, r.AvgSuper, r.NumSuper, r.FactorTime)
			}
		}},
		{"gridshape", "", 0, func() {
			rows, err := experiments.GridShapeAblation("AF23560", *scale, 16)
			must(err)
			fmt.Fprintln(w, "Process-grid shape on 16 PEs (paper: 2-D beats the natural 1-D layout):")
			fmt.Fprintf(w, "%8s %12s %12s %14s %8s\n", "grid", "factor(s)", "solve(s)", "volume(bytes)", "B")
			for _, r := range rows {
				fmt.Fprintf(w, "%8s %12.4f %12.4f %14d %8.2f\n", r.Shape, r.FactorTime, r.SolveTime, r.Volume, r.Balance)
			}
		}},
		{"redist", "", 0, func() {
			rows, err := experiments.RedistAblation(*scale, 64)
			must(err)
			fmt.Fprintln(w, "1-D to 2-D redistribution cost vs factorization (future-work input interface), P=64:")
			fmt.Fprintf(w, "%-10s %12s %12s %10s %12s\n", "Matrix", "redist(s)", "factor(s)", "msgs", "bytes")
			for _, r := range rows {
				fmt.Fprintf(w, "%-10s %12.4f %12.4f %10d %12d\n", r.Name, r.RedistTime, r.FactorTime, r.RedistMsgs, r.RedistBytes)
			}
		}},
		{"parfactor", "", 0, func() { experiments.PrintParFactor(w, parfactor()) }},
		{"serve", "", 0, func() {
			rows, err := experiments.ServeAblation(*serveClients, *serveDuration, *scale)
			must(err)
			experiments.PrintServe(w, rows)
		}},
		{"fleet", "", 0, func() {
			rows, err := experiments.FleetAblation(*fleetWorkers, *fleetDuration, *scale)
			must(err)
			experiments.PrintFleet(w, rows)
		}},
		{"fleetproc", "", 0, func() {
			rows, err := experiments.FleetProcAblation(*fleetWorkers, *fleetDuration, *scale)
			must(err)
			experiments.PrintFleetProc(w, rows)
		}},
		{"ha", "", 0, func() {
			rows, err := experiments.HAAblation(*fleetWorkers, *fleetDuration, *scale)
			must(err)
			experiments.PrintHA(w, rows)
		}},
		{"iterative", "", 0, func() {
			rows, err := experiments.IterativeAblation(
				[]string{"AF23560", "MEMPLUS", "GEMAT11", "WEST2021", "SHERMAN4", "ONETONE1"}, *scale)
			must(err)
			experiments.PrintIterative(w, rows)
		}},
		{"resilience", "", 0, func() {
			rows, err := experiments.ResilienceAblation(1)
			must(err)
			experiments.PrintResilience(w, rows)
		}},
		{"faults", "", 0, func() {
			rows, err := experiments.FaultAblation(1, *scale)
			must(err)
			experiments.PrintFaults(w, rows)
		}},
	}
	// -exp accepts all, each group alias and every experiment name.
	var groups, names []string
	members := map[string][]string{}
	for _, e := range table {
		names = append(names, e.name)
		if e.group != "" {
			if members[e.group] == nil {
				groups = append(groups, e.group)
			}
			members[e.group] = append(members[e.group], e.name)
		}
	}
	help := []string{"all"}
	for _, g := range groups {
		help = append(help, g+" ("+strings.Join(members[g], "+")+")")
	}
	exp := flag.String("exp", "all", "experiment: "+strings.Join(append(help, names...), ", "))
	flag.Parse()
	selected := func(e experiment) bool { return *exp == "all" || *exp == e.name || *exp == e.group }

	var err error
	if workers, err = parseProcs(*workersF); err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		// Machine-readable mode: JSON rows only, suitable for a
		// BENCH_*.json perf trajectory (gesp-bench -json > BENCH_date.json).
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		must(enc.Encode(parfactor()))
		return
	}
	if procs, err = parseProcs(*procsF); err != nil {
		log.Fatal(err)
	}
	needs := map[int]bool{} // empty after the loop: -exp selected nothing
	for _, e := range table {
		if selected(e) {
			needs[e.needs] = true
		}
	}
	if len(needs) == 0 {
		log.Fatalf("unknown experiment %q (want all, %s, or one of %s)",
			*exp, strings.Join(groups, ", "), strings.Join(names, ", "))
	}
	if needs[needSerial] {
		log.Printf("running serial testbed (53 matrices, scale %.2f)...", *scale)
		serial = experiments.RunSerial(*scale, true, true)
	}
	if needs[needScaling] {
		log.Printf("running distributed sweep (8 matrices x P=%v, scale %.2f)...", procs, *scale)
		experiments.Progress = log.Printf
		scaling, err = experiments.RunScaling(*scale, procs, true, true)
		must(err)
	}
	for _, e := range table {
		if selected(e) {
			e.run()
			fmt.Fprintln(w)
		}
	}
}

func splitNames(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad processor count %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}
