package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// warmupOps operations per client end every set-up.
const warmupOps = 2

// runConfig is one run's parameters.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	sz     sizes
	root   string // module root: where binaries build from and results go
}

// opResult is what one closed-loop operation reports once its clock
// has stopped and its solutions have been checked.
type opResult struct {
	kind      string // "round", "solve", "refactor" or "cold"
	ms        float64
	attempted int // solutions requested
	failed    int // errors, non-200s and solutions the oracle rejected
}

// session is a set-up workload: what the timed window drives.
type session struct {
	clients int
	primary string // the op kind whose latency is op_p10_ms
	// op runs one operation for a client. tr is nil on the untraced
	// run and on the untraced half of a traced run's operations.
	op func(client int, tr *tracer, id int64) opResult
	// probe runs after the window of a traced run: replays and depth
	// ladders that give the layers a workload cannot see from outside.
	probe func(tr *tracer, layer map[string]float64) error
	// close releases everything; for workloads with child processes it
	// returns their summed peak RSS, read before they are stopped.
	close func() (childRSSMB float64, err error)
}

// workload is one named traffic mix.
type workload struct {
	name   string
	why    string
	setups int // set-ups per untraced run; setup_s is their median
	setup  func(cfg runConfig) (*session, error)
}

var workloads = []workload{
	{"cold-solve", "one-shot user: analysis (ordering, symbolic, MC64, equilibration) dominates, factor is ~10 %", 3, setupColdSolve},
	{"refactor-loop", "Newton/time-stepping user: factor and triangular solves on a reused analysis; bypasses every analysis phase", 3, setupRefactorLoop},
	{"refactor-par", "the same layers through the Workers=2 DAG-scheduled engine, so a serial gain at the parallel engine's cost shows", 3, setupRefactorPar},
	{"fleet-solve", "read-only traffic through real processes: JSON codec, HA coordinator, ring, RPC, cache, batcher, solve + refine", 2, setupFleetSolve},
	{"fleet-churn", "writes beside reads: quorum-replicated submits, LRU eviction, 410-heal resubmits, solves queued behind analyses", 2, setupFleetChurn},
	{"dist-sim", "the simulated distributed engine at P=4,16,64: host wall time of the simulator; virtual times and messages as counts", 3, setupDistSim},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// sample is one operation of the window.
type sample struct {
	opResult
	traced bool
}

// report is one run's outcome.
type report struct {
	Env       environment        `json:"environment"`
	Workload  string             `json:"workload"`
	Attempted int                `json:"attempted"`
	Succeeded int                `json:"succeeded"`
	Failed    int                `json:"failed"`
	Ops       map[string]int     `json:"ops_by_kind"`
	Samples   int                `json:"primary_samples"`
	TailMs    float64            `json:"tail_ms"`
	TailPct   float64            `json:"tail_percentile"`
	SetupS    []float64          `json:"setup_s_each"`
	PrimaryMs []float64          `json:"primary_ms_each"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// run sets the workload up, drives its window and returns the report.
func run(w workload, cfg runConfig) (*report, error) {
	rep := &report{Env: readEnvironment(cfg), Workload: w.name, Ops: map[string]int{}}
	layer := map[string]float64{}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		// Kernel rates are measured before any child process exists.
		probeKernels(tr, layer)
	}

	// A traced run does not report setup_s, so it sets up once.
	setups := w.setups
	if cfg.trace {
		setups = 1
	}
	var s *session
	for i := 0; i < setups; i++ {
		if s != nil {
			if _, err := s.close(); err != nil {
				return nil, fmt.Errorf("%s: closing set-up %d: %w", w.name, i, err)
			}
		}
		t0 := time.Now()
		var err error
		if s, err = w.setup(cfg); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		warmUp(s)
		rep.SetupS = append(rep.SetupS, time.Since(t0).Seconds())
	}
	closed := false
	defer func() {
		if !closed {
			//gesp:errok — already failing with the error that matters; close only reclaims children and temp files
			_, _ = s.close()
		}
	}()

	samples, elapsed := driveWindow(s, tr, cfg.window)

	var primary, traced, plain, solves []float64
	ops := 0
	for _, sm := range samples {
		ops++
		rep.Ops[sm.kind]++
		rep.Attempted += sm.attempted
		rep.Failed += sm.failed
		if sm.kind == "solve" {
			solves = append(solves, sm.ms)
		}
		if sm.kind != s.primary {
			continue
		}
		primary = append(primary, sm.ms)
		if sm.traced {
			traced = append(traced, sm.ms)
		} else {
			plain = append(plain, sm.ms)
		}
	}
	rep.Succeeded = rep.Attempted - rep.Failed
	rep.Samples, rep.PrimaryMs = len(primary), primary
	rep.TailMs, rep.TailPct = tail(primary)
	if len(primary) == 0 {
		return nil, fmt.Errorf("%s: the window completed no %s operation", w.name, s.primary)
	}

	if cfg.trace {
		if err := s.probe(tr, layer); err != nil {
			return nil, fmt.Errorf("%s: probe: %w", w.name, err)
		}
		layer["client.op_p50_ms"] = median(primary)
		layer["client.op_tail_ms"] = rep.TailMs
		layer["client.ops_per_s"] = float64(ops) / elapsed.Seconds()
		layer["client.solve_p50_ms"] = median(solves)
		if len(solves) >= 1000 { // ten samples beyond p99
			layer["client.solve_p99_ms"] = quantile(solves, 0.99)
		}
		if p := quantile(plain, 0.1); p > 0 {
			layer["client.trace_overhead_pct"] = 100 * (quantile(traced, 0.1) - p) / p
		}
	}

	childRSS, err := s.close()
	closed = true
	if err != nil {
		return nil, fmt.Errorf("%s: close: %w", w.name, err)
	}
	rss := childRSS
	if rss == 0 {
		if rss, err = peakRSSMB(os.Getpid()); err != nil {
			return nil, err
		}
	}

	if cfg.trace {
		layer["client.peak_rss_mb"] = rss
		rep.PerLayer = layer
		if err := writeTrace(cfg, w.name, rep.Env, tr); err != nil {
			return nil, err
		}
	} else {
		rep.EndToEnd = map[string]float64{
			"setup_s":   median(rep.SetupS),
			"op_p10_ms": quantile(primary, 0.1),
		}
	}
	return rep, nil
}

// warmUp runs warmupOps untimed operations per client, so caches,
// connection pools and the allocator are in steady state when the
// window opens. It is the last step of set-up and counted in setup_s.
func warmUp(s *session) {
	var wg sync.WaitGroup
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < warmupOps; i++ {
				s.op(c, nil, 0)
			}
		}(c)
	}
	wg.Wait()
}

// driveWindow runs the closed loop: every client issues its next
// operation when the previous one has completed, until the window
// ends. On a traced run operations alternate between traced and
// untraced, so both halves see the same conditions and their medians
// give the tracing overhead. It returns the samples and the time from
// the window's start to the last completion.
func driveWindow(s *session, tr *tracer, window time.Duration) ([]sample, time.Duration) {
	var nextID atomic.Int64
	var mu sync.Mutex
	var all []sample
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(window)
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []sample
			for i := 0; time.Now().Before(deadline); i++ {
				t := tr
				if i%2 == 1 {
					t = nil
				}
				r := s.op(c, t, nextID.Add(1))
				mine = append(mine, sample{opResult: r, traced: t != nil})
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	return all, time.Since(start)
}
