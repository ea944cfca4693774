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

// tables is what one experiment renders.
type tables = []experiments.Table

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

	// The experiment table, in output order: the one place an experiment
	// is named. group is the -exp alias that also selects it; needs is
	// the shared sweep (run once, before any section) it reads from; run
	// measures and lays out the experiment, ending the run on an error.
	const (
		needSerial = iota + 1
		needScaling
	)
	type experiment struct {
		name, group string
		needs       int
		run         func() tables
	}
	table := []experiment{
		{"table1", "serial", 0, func() tables { return tables{experiments.FormatTable1(experiments.Table1(*scale), *scale)} }},
		{"fig2", "serial", needSerial, func() tables { return tables{experiments.FormatFigure2(serial)} }},
		{"fig3", "serial", needSerial, func() tables { return tables{experiments.FormatFigure3(serial)} }},
		{"fig4", "serial", needSerial, func() tables { return tables{experiments.FormatFigure4(serial)} }},
		{"fig5", "serial", needSerial, func() tables { return tables{experiments.FormatFigure5(serial)} }},
		{"fig6", "serial", needSerial, func() tables { return tables{experiments.FormatFigure6(serial)} }},
		{"nopivot", "serial", 0, func() tables { return tables{experiments.FormatNoPivot(experiments.RunNoPivot(*scale))} }},
		{"table2", "scaling", 0, func() tables { return tables{experiments.FormatTable2(experiments.Table2(*scale), *scale)} }},
		{"table3", "scaling", needScaling, func() tables { return tables{experiments.FormatTable3(scaling, procs)} }},
		{"table4", "scaling", needScaling, func() tables { return tables{experiments.FormatTable4(scaling, procs)} }},
		{"table5", "scaling", needScaling, func() tables { return tables{experiments.FormatTable5(scaling, procs, *p5)} }},
		{"edag", "", 0, func() tables {
			r, err := experiments.EDAGAblation("AF23560", *scale, 32)
			must(err)
			return tables{experiments.FormatAblation("EDAG-pruned communication (paper: 16% fewer messages, AF23560, 32 PEs)", r)}
		}},
		{"pipeline", "", 0, func() tables {
			r, err := experiments.PipelineAblation("AF23560", *scale, 64)
			must(err)
			return tables{experiments.FormatAblation("Pipelined factorization (paper: 10-40% faster on 64 PEs)", r)}
		}},
		{"blocksize", "", 0, func() tables {
			rows, err := experiments.BlockSizeAblation("AF23560", *scale, 16, []int{4, 8, 16, 24, 32, 64, 128})
			must(err)
			return tables{experiments.FormatBlockSize(rows)}
		}},
		{"ordering", "", 0, func() tables {
			rows, err := experiments.OrderingAblation([]string{"AF23560", "MEMPLUS", "SHERMAN4", "TWOTONE", "WANG4"}, *scale)
			must(err)
			return tables{experiments.FormatOrdering(rows)}
		}},
		{"relax", "", 0, func() tables {
			rows, err := experiments.RelaxAblation("TWOTONE", *scale, 16, []int{0, 1, 2, 4, 8})
			must(err)
			return tables{experiments.FormatRelax(rows)}
		}},
		{"gridshape", "", 0, func() tables {
			rows, err := experiments.GridShapeAblation("AF23560", *scale, 16)
			must(err)
			return tables{experiments.FormatGridShape(rows, 16)}
		}},
		{"redist", "", 0, func() tables {
			rows, err := experiments.RedistAblation(*scale, 64)
			must(err)
			return tables{experiments.FormatRedist(rows, 64)}
		}},
		{"parfactor", "", 0, func() tables {
			rows, err := experiments.ParallelFactorSweep(splitNames(*matsF), *scale, workers)
			must(err)
			return tables{experiments.FormatParFactor(rows)}
		}},
		{"serve", "", 0, func() tables {
			res, err := experiments.ServeAblation(*serveClients, *serveDuration, *scale)
			must(err)
			return experiments.FormatServe(res)
		}},
		{"fleet", "", 0, func() tables {
			res, err := experiments.FleetAblation(*fleetWorkers, *fleetDuration, *scale)
			must(err)
			return experiments.FormatFleet(res)
		}},
		{"fleetproc", "", 0, func() tables {
			res, err := experiments.FleetProcAblation(*fleetWorkers, *fleetDuration, *scale)
			must(err)
			return experiments.FormatFleetProc(res)
		}},
		{"ha", "", 0, func() tables {
			res, err := experiments.HAAblation(*fleetWorkers, *fleetDuration, *scale)
			must(err)
			return experiments.FormatHA(res)
		}},
		{"iterative", "", 0, func() tables {
			rows, err := experiments.IterativeAblation(
				[]string{"AF23560", "MEMPLUS", "GEMAT11", "WEST2021", "SHERMAN4", "ONETONE1"}, *scale)
			must(err)
			return tables{experiments.FormatIterative(rows)}
		}},
		{"resilience", "", 0, func() tables {
			rows, err := experiments.ResilienceAblation(1)
			must(err)
			return tables{experiments.FormatResilience(rows)}
		}},
		{"faults", "", 0, func() tables {
			rows, err := experiments.FaultAblation(1, *scale)
			must(err)
			return tables{experiments.FormatFaults(rows)}
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
	// A broken verdict that tests also assert (Table.Fail) ends the run
	// non-zero once its table is out.
	for _, e := range table {
		if selected(e) {
			must(experiments.Render(w, e.run()...))
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
