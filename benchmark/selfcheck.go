package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// benchmarkFile is BENCHMARK.json as far as the benchmark reads it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// childRun runs one workload in a fresh process of this executable,
// exactly as the acceptance pipeline does, and parses its result line.
func childRun(cfg runConfig, workload string, seed int64, seconds int) (*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = cfg.root
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return &res, nil
}

// runSelfcheck measures every workload twice on the same build and
// seed and holds the difference to the bounds in BENCHMARK.json: a
// benchmark that cannot agree with itself cannot judge a change.
func runSelfcheck(cfg runConfig, chosen []workload, seconds int) error {
	bf, err := readBenchmarkFile(cfg.root)
	if err != nil {
		return err
	}
	bad := 0
	for _, w := range chosen {
		var runs [2]*result
		for i := range runs {
			if runs[i], err = childRun(cfg, w.name, cfg.seed, seconds); err != nil {
				return err
			}
		}
		fmt.Printf("== %s (seed %d, attempted %d/%d, failed %d/%d)\n", w.name, cfg.seed,
			runs[0].Attempted, runs[1].Attempted, runs[0].Failed, runs[1].Failed)
		if runs[0].Failed+runs[1].Failed > 0 {
			bad++
		}
		for _, m := range bf.EndToEnd {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			diff := math.Abs(b-a) / math.Abs(a)
			verdict := "ok"
			if !(diff <= m.Bound) {
				verdict = "OUT OF BOUND"
				bad++
			}
			fmt.Printf("   %-12s %12.4f %12.4f %-4s  diff %5.1f %%  bound %4.1f %%  %s\n",
				m.Name, a, b, m.Unit, 100*diff, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) out of bound or workload(s) with failed operations", bad)
	}
	fmt.Println("selfcheck: every end-to-end metric agrees with itself within its bound")
	return nil
}

// spreadRow is one metric of one workload over the spread runs.
type spreadRow struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"iqr_over_median"`
	Bound  float64   `json:"bound"`
}

// runSpread runs every workload n times on consecutive seeds in fresh
// processes and records, per end-to-end metric, the values, their
// median and the inter-quartile spread the bounds were fixed from.
func runSpread(cfg runConfig, chosen []workload, seconds, n int) error {
	bf, err := readBenchmarkFile(cfg.root)
	if err != nil {
		return err
	}
	type workloadSpread struct {
		Workload string               `json:"workload"`
		Metrics  map[string]spreadRow `json:"metrics"`
	}
	out := struct {
		Env       environment      `json:"environment"`
		Runs      int              `json:"runs_per_workload"`
		Workloads []workloadSpread `json:"workloads"`
	}{Env: readEnvironment(cfg), Runs: n}
	for _, w := range chosen {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := childRun(cfg, w.name, cfg.seed+int64(i), seconds)
			if err != nil {
				return err
			}
			if res.Failed > 0 {
				return errFailedOps{w.name}
			}
			for _, m := range bf.EndToEnd {
				values[m.Name] = append(values[m.Name], res.Metrics[m.Name].Value)
			}
		}
		ws := workloadSpread{Workload: w.name, Metrics: map[string]spreadRow{}}
		fmt.Printf("== %s, %d runs, seeds %d..%d\n", w.name, n, cfg.seed, cfg.seed+int64(n)-1)
		for _, m := range bf.EndToEnd {
			row := spreadRow{Values: values[m.Name], Median: median(values[m.Name]), Spread: quartileSpread(values[m.Name]), Bound: m.Bound}
			ws.Metrics[m.Name] = row
			fmt.Printf("   %-12s median %12.4f %-4s  spread %5.2f %%  bound %4.1f %%\n", m.Name, row.Median, m.Unit, 100*row.Spread, 100*m.Bound)
		}
		out.Workloads = append(out.Workloads, ws)
	}
	return writeJSON(cfg, "baseline-spread.json", out)
}
