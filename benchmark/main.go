// Command benchmark is the repository's end-to-end benchmark: six named
// workloads from a one-shot GESP solve to the HA fleet, every input
// generated from -seed, every returned solution checked by the
// benchmark's own oracle, and a traced run that times each layer from
// outside — by calling its public functions and its public HTTP routes.
// See README.md in this directory and BENCHMARK.json at the module root.
//
//	go run ./benchmark -seed 1                          # all six, untraced
//	go run ./benchmark -workload fleet-solve -trace 1   # one, layer by layer
//	go run ./benchmark -selfcheck                       # same code twice, within bounds?
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics (setup_s, op_p10_ms) of an untraced run, the per-layer metrics
// of a traced one. The exit status is non-zero when any operation failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Int64("seed", 1, "seed of every generated input")
		seconds   = flag.Int("seconds", 10, "length of the timed window")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced, prints the end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice on this build and seed; fail if an end-to-end metric differs by more than its bound")
		spread    = flag.Int("spread", 0, "run every workload this many times on consecutive seeds and write results/baseline-spread.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	root, err := repoRoot()
	if err != nil {
		fatal(err)
	}
	cfg := runConfig{
		seed:   *seed,
		window: time.Duration(*seconds) * time.Second,
		trace:  *trace != 0,
		sz:     fullSizes,
		root:   root,
	}

	// A fleet workload owns child processes and a temp dir; an
	// interrupt must not leave them behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()

	chosen := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		chosen = []workload{w}
	}
	switch {
	case *selfcheck:
		err = runSelfcheck(cfg, chosen, *seconds)
	case *spread > 0:
		err = runSpread(cfg, chosen, *seconds, *spread)
	case *name == "all":
		err = runAll(cfg)
	default:
		err = runOne(cfg, chosen[0])
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	killAllChildren()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// errFailedOps is returned after the result has been printed.
type errFailedOps struct{ workload string }

func (e errFailedOps) Error() string {
	return e.workload + ": operations failed or returned wrong solutions (see the result above)"
}

// measure runs one workload, writes its report file, prints the table
// and returns the result line the acceptance pipeline parses.
func measure(cfg runConfig, w workload) (line string, failed bool, err error) {
	rep, err := run(w, cfg)
	if err != nil {
		return "", false, err
	}
	if err := writeReport(cfg, rep); err != nil {
		return "", false, err
	}
	printReport(rep)
	raw, err := json.Marshal(resultLine(rep))
	return string(raw), rep.Failed > 0, err
}

// runOne runs a single workload; its result line is the last line.
func runOne(cfg runConfig, w workload) error {
	line, failed, err := measure(cfg, w)
	if err != nil {
		return err
	}
	fmt.Println(line)
	if failed {
		return errFailedOps{w.name}
	}
	return nil
}

// runAll runs every workload in turn, then prints one result line per
// workload, each after its workload's name.
func runAll(cfg runConfig) error {
	var lines []string
	anyFailed := false
	for _, w := range workloads {
		line, failed, err := measure(cfg, w)
		if err != nil {
			return err
		}
		lines = append(lines, w.name+" "+line)
		anyFailed = anyFailed || failed
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	if anyFailed {
		return errFailedOps{"all"}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine holds the run to the metric tables: every end-to-end
// metric on an untraced run, every per-layer metric on a traced one.
func resultLine(rep *report) result {
	res := result{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	defs, values := endToEnd, rep.EndToEnd
	if rep.Env.Trace {
		defs, values = perLayer, rep.PerLayer
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	return res
}

func printReport(rep *report) {
	mode := "untraced"
	if rep.Env.Trace {
		mode = "traced"
	}
	noisy := ""
	if rep.Env.Noisy {
		noisy = "  NOISY (load1 above half the cores)"
	}
	fmt.Printf("== %s (%s, seed %d, window %.0f s, load1 %.2f%s)\n", rep.Workload, mode, rep.Env.Seed, rep.Env.WindowS, rep.Env.Load1, noisy)
	fmt.Printf("   solutions attempted %d  succeeded %d  failed %d\n", rep.Attempted, rep.Succeeded, rep.Failed)
	kinds := make([]string, 0, len(rep.Ops))
	for k := range rep.Ops { //gesp:unordered — keys are sorted before use
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("   operations:")
	for _, k := range kinds {
		fmt.Printf(" %s %d", k, rep.Ops[k])
	}
	fmt.Printf("; %d primary samples, p%.1f %.3f ms\n", rep.Samples, rep.TailPct, rep.TailMs)
	defs, values := endToEnd, rep.EndToEnd
	if rep.Env.Trace {
		defs, values = perLayer, rep.PerLayer
	}
	for _, d := range defs {
		if v, ok := values[d.name]; ok {
			fmt.Printf("   %-40s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

func resultsDir(cfg runConfig) string { return filepath.Join(cfg.root, "benchmark", "results") }

// writeJSON writes v, indented, to a file under results/.
func writeJSON(cfg runConfig, file string, v any) error {
	dir := resultsDir(cfg)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), append(raw, '\n'), 0o644)
}

func writeReport(cfg runConfig, rep *report) error {
	suffix := ""
	if cfg.trace {
		suffix = "-traced"
	}
	return writeJSON(cfg, "run-"+rep.Workload+suffix+".json", rep)
}

// writeTrace writes the spans of a traced run.
func writeTrace(cfg runConfig, workload string, env environment, tr *tracer) error {
	return writeJSON(cfg, "trace-"+workload+".json", struct {
		Env   environment `json:"environment"`
		Spans []span      `json:"spans"`
	}{env, tr.spans})
}
