package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, seed int64, trace bool) runConfig {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	return runConfig{seed: seed, window: 150 * time.Millisecond, trace: trace, sz: smokeSizes, root: root}
}

// checkReport holds a smoke run to the contract of a real one: work
// was done, nothing failed, and every metric of the mode's table is
// present and finite.
func checkReport(t *testing.T, rep *report) {
	t.Helper()
	if rep.Attempted == 0 || rep.Failed != 0 || rep.Succeeded != rep.Attempted {
		t.Errorf("%s: attempted %d succeeded %d failed %d", rep.Workload, rep.Attempted, rep.Succeeded, rep.Failed)
	}
	res := resultLine(rep)
	want := endToEnd
	if rep.Env.Trace {
		want = perLayer
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics in the result line, want %d", rep.Workload, len(res.Metrics), len(want))
	}
	for _, d := range want {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("%s: metric %s = %v (present %v)", rep.Workload, d.name, v.Value, ok)
		}
		if !rep.Env.Trace && v.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", rep.Workload, d.name, v.Value)
		}
	}
}

// TestInProcessWorkloads runs one short window of each in-process
// workload at reduced size, untraced on seed 1 and traced on seed 2,
// so nothing is tuned to one seed.
func TestInProcessWorkloads(t *testing.T) {
	for _, name := range []string{"cold-solve", "refactor-loop", "refactor-par", "dist-sim"} {
		w, ok := findWorkload(name)
		if !ok {
			t.Fatalf("no workload %s", name)
		}
		for _, mode := range []struct {
			seed  int64
			trace bool
		}{{1, false}, {2, true}} {
			rep, err := run(w, smokeConfig(t, mode.seed, mode.trace))
			if err != nil {
				t.Fatalf("%s seed %d trace %v: %v", name, mode.seed, mode.trace, err)
			}
			checkReport(t, rep)
		}
	}
	// The traced cold-solve run must have produced its phase spans and a
	// loadable span file.
	raw, err := os.ReadFile(filepath.Join(resultsDir(smokeConfig(t, 2, true)), "trace-cold-solve.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace-cold-solve.json: %v", err)
	}
	seen := map[string]bool{}
	for _, s := range file.Spans {
		seen[s.Name] = true
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	for _, name := range []string{"round", "core.new.mesh", "ordering.order.circuit", "lu.factorize.fill", "refine.refine.mesh"} {
		if !seen[name] {
			t.Errorf("trace-cold-solve.json has no %s span", name)
		}
	}
}

// TestFleetSmoke builds the shipped binaries, starts the real
// topology, and runs a handful of requests of each fleet workload
// through the leader, traced, so the ladders run too.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	for _, name := range []string{"fleet-solve", "fleet-churn"} {
		w, _ := findWorkload(name)
		rep, err := run(w, smokeConfig(t, 2, true))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkReport(t, rep)
		if rep.PerLayer["fleetha.solve_ms"] <= 0 || rep.PerLayer["core.solve_warm_ms"] <= 0 {
			t.Errorf("%s: the solve ladder measured nothing: %v", name, rep.PerLayer)
		}
	}
	live.mu.Lock()
	defer live.mu.Unlock()
	if len(live.clusters) != 0 {
		t.Errorf("%d clusters still registered after their runs", len(live.clusters))
	}
}

// TestSameSeedSameInputs pins the seed contract: the same seed gives
// the same matrices and right-hand sides, another seed other values
// on the same pattern.
func TestSameSeedSameInputs(t *testing.T) {
	gen := func(seed int64) ([]float64, []float64) {
		a := variant(pattern(circuit, smokeSizes.cold[circuit], 0), stream(seed, 12))
		b, _ := rhs(a, stream(seed, 22))
		return a.Val, b
	}
	v1, b1 := gen(1)
	v1again, b1again := gen(1)
	v2, _ := gen(2)
	if len(v1) != len(v2) {
		t.Fatalf("pattern depends on the seed: nnz %d vs %d", len(v1), len(v2))
	}
	same12 := true
	for i := range v1 {
		if math.Float64bits(v1[i]) != math.Float64bits(v1again[i]) {
			t.Fatalf("value %d differs between two generations from seed 1", i)
		}
		same12 = same12 && math.Float64bits(v1[i]) == math.Float64bits(v2[i])
	}
	for i := range b1 {
		if math.Float64bits(b1[i]) != math.Float64bits(b1again[i]) {
			t.Fatalf("right-hand side entry %d differs between two generations from seed 1", i)
		}
	}
	if same12 {
		t.Error("seeds 1 and 2 give identical values")
	}
}

// TestBenchmarkFileMatchesTables holds BENCHMARK.json to the tables
// the benchmark prints from: the workloads, the end-to-end metrics
// with a bound each, the per-layer metrics without.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	compare := func(kind string, got []benchmarkMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the benchmark", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the benchmark %+v", kind, i, g, d)
			}
			if bounded && !(g.Bound > 0 && g.Bound <= 0.25) {
				t.Errorf("%s metric %s: bound %v outside (0, 0.25]", kind, g.Name, g.Bound)
			}
			if !bounded && g.Bound != 0 {
				t.Errorf("%s metric %s carries a bound", kind, g.Name)
			}
		}
	}
	compare("end_to_end", bf.EndToEnd, endToEnd, true)
	compare("per_layer", bf.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, limit 128", len(perLayer))
	}
}
