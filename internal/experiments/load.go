package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"gesp/internal/fleetha"
	"gesp/internal/fleetrpc"
	"gesp/internal/matgen"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

// The closed-loop load driver behind the serve, fleet, fleetproc and ha
// studies: workers submit-and-solve systems from a seeded pool against
// one target for a fixed window while the study injects its fault
// mid-run.

// loadPatterns is the testbed slice the load pools draw from, smallest
// first. It is wide on purpose: balancedFleetPatterns needs candidates
// whose PatternHash lands on every ring owner, and which fingerprint
// falls where is hash luck.
var loadPatterns = []string{
	"SHERMAN4", "GEMAT11", "WEST2021", "ORSIRR_1", "JPWH_991",
	"PORES_2", "SHERMAN3", "ADD32", "MEMPLUS", "SAYLR4",
	"GOODWIN", "GRAHAM1", "TOLS4000", "INACCURA", "MHD4800A",
	"WANG4", "LHR01", "RADFR1", "RAEFSKY4", "FIDAPM11",
	"MCFE", "SHERMAN5", "BBMAT", "TWOTONE", "VENKAT01",
	"LHR34C", "AF23560", "RDIST2", "ONETONE1", "SHYY161",
	"ECL32", "RDIST1",
}

// loadSeed seeds every pool and every worker's request stream.
const loadSeed = 42

// target is what a load run drives; the constructors below put the
// in-process service, the fleet router and the HA client behind it.
type target struct {
	submit func(context.Context, *sparse.CSC) (serve.Handle, error)
	solve  func(context.Context, serve.Handle, []float64) ([]float64, error)
}

func serviceTarget(s *serve.Service) target {
	return target{
		submit: func(_ context.Context, a *sparse.CSC) (serve.Handle, error) { return s.Submit(a) },
		solve:  func(_ context.Context, h serve.Handle, b []float64) ([]float64, error) { return s.Solve(h, b) },
	}
}

func fleetTarget(f *fleetrpc.Fleet) target {
	return target{
		submit: func(ctx context.Context, a *sparse.CSC) (serve.Handle, error) {
			return f.Submit(ctx, fleetrpc.WireMatrix(a))
		},
		solve: f.Solve,
	}
}

// haTarget bounds each solve, so a failover that never completes shows
// up as a failed request instead of a stuck worker.
func haTarget(c *fleetha.Client) target {
	return target{submit: c.Submit, solve: func(ctx context.Context, h serve.Handle, b []float64) ([]float64, error) {
		ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
		defer cancel()
		return c.Solve(ctx, h, b)
	}}
}

// poolSystem is one system of a load pool: matrix, all-ones right-hand
// side, and the handle its warm submit returned.
type poolSystem struct {
	label string // "MATRIX/variant", for error messages
	a     *sparse.CSC
	b     []float64
	h     serve.Handle
}

// buildPool generates a pattern×variant system pool from names in
// loadPatterns, pattern-major: per testbed matrix the base system, then
// variants-1 copies of its pattern with values perturbed by
// 1+0.1·N(0,1) (seeded loadSeed+1000·pattern+variant, so a pool is
// reproducible).
func buildPool(names []string, variants int, scale float64) []poolSystem {
	var pool []poolSystem
	for p, name := range names {
		base := loadMatrix(name, scale)
		for v := 0; v < variants; v++ {
			a := base
			if v > 0 {
				rng := rand.New(rand.NewSource(loadSeed + int64(1000*p+v)))
				a = base.Clone()
				for k := range a.Val {
					a.Val[k] *= 1 + 0.1*rng.NormFloat64()
				}
			}
			pool = append(pool, poolSystem{label: fmt.Sprintf("%s/%d", name, v), a: a, b: matgen.OnesRHS(a)})
		}
	}
	return pool
}

// loadMatrix generates a loadPatterns matrix; one missing from the
// testbed is a bug in that list.
func loadMatrix(name string, scale float64) *sparse.CSC {
	m, ok := matgen.Lookup(name)
	if !ok {
		panic("experiments: load pattern " + name + " is not in the testbed")
	}
	return m.Generate(scale)
}

// warm submits every pool system and solves it once, so no analysis or
// factorization (on the owner or, when an arm replicates, on the
// replicas) lands inside the measurement window.
func warm(ctx context.Context, t target, pool []poolSystem) error {
	for i := range pool {
		e := &pool[i]
		var err error
		if e.h, err = t.submit(ctx, e.a); err != nil {
			return fmt.Errorf("experiments: warm submit %s: %w", e.label, err)
		}
		if _, err := t.solve(ctx, e.h, e.b); err != nil {
			return fmt.Errorf("experiments: warm solve %s: %w", e.label, err)
		}
	}
	return nil
}

// diurnalPhases is the active-worker fraction per quarter of the run:
// ramp, peak, trough, peak — the bursty shape a real tenant mix has.
var diurnalPhases = [4]float64{0.5, 1.0, 0.25, 1.0}

// load is the shape of one closed-loop run.
type load struct {
	workers int
	window  time.Duration
	// think is each worker's pause between requests. Non-zero decouples
	// offered load from service latency, so a closed loop doesn't
	// reward a faster arm with proportionally more traffic.
	think time.Duration
	// zipfS > 1 skews the choice of system toward the front of the pool
	// (popular systems dominate, which is what makes per-shard caches
	// and replication matter); otherwise the choice is uniform.
	zipfS float64
	// diurnal modulates the active worker count through diurnalPhases.
	diurnal bool
	// resubmit is the per-request probability that a worker resubmits
	// its system before solving, exercising the factor-cache hit path.
	resubmit float64
	// fault, when set, is the study's mid-run fault; it runs once,
	// faultAt into the window, while the workers keep going.
	fault   func()
	faultAt time.Duration
}

// LoadResult is one closed-loop run's measurement. Every attempt is a
// solve, shed (serve.ErrOverloaded) or failed: Solves+Shed+Failed.
type LoadResult struct {
	Workers, Systems    int
	Solves, Shed        uint64
	Failed              uint64
	Err                 error         // the first failure; nil when Failed is 0
	Window              time.Duration // first worker start to last worker exit
	Throughput          float64       // solves per second of Window
	P50, P95, P99, P999 time.Duration // solve latency
}

// runLoad drives t with l.workers closed-loop workers for l.window over
// the warmed pool. Worker w draws systems from a source seeded
// loadSeed+7000+w.
func runLoad(ctx context.Context, t target, pool []poolSystem, l load) LoadResult {
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		end       time.Time
	)
	res := LoadResult{Workers: l.workers, Systems: len(pool)}
	start := time.Now()
	deadline := start.Add(l.window)
	for w := 0; w < l.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(loadSeed + int64(7000+w)))
			pick := func() int { return rng.Intn(len(pool)) }
			if l.zipfS > 1 {
				zipf := rand.NewZipf(rng, l.zipfS, 1, uint64(len(pool)-1))
				pick = func() int { return int(zipf.Uint64()) }
			}
			var mine LoadResult
			var local []time.Duration
			for time.Now().Before(deadline) {
				if l.diurnal && float64(w) >= diurnalPhases[min(3, int(4*time.Since(start)/l.window))]*float64(l.workers) {
					time.Sleep(200 * time.Microsecond) // off-shift worker
					continue
				}
				e := &pool[pick()]
				var err error
				if l.resubmit > 0 && rng.Float64() < l.resubmit {
					_, err = t.submit(ctx, e.a)
				}
				t0 := time.Now()
				if err == nil {
					_, err = t.solve(ctx, e.h, e.b)
				}
				switch {
				case err == nil:
					local = append(local, time.Since(t0))
					mine.Solves++
				case errors.Is(err, serve.ErrOverloaded):
					mine.Shed++
				default:
					mine.Failed++
					if mine.Err == nil {
						mine.Err = err
					}
				}
				if l.think > 0 {
					time.Sleep(l.think)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, local...)
			res.Solves += mine.Solves
			res.Shed += mine.Shed
			res.Failed += mine.Failed
			if res.Err == nil {
				res.Err = mine.Err
			}
			if now := time.Now(); now.After(end) {
				end = now
			}
		}()
	}
	if l.fault != nil {
		time.Sleep(l.faultAt)
		l.fault()
	}
	wg.Wait()

	res.Window = end.Sub(start)
	if res.Window > 0 {
		res.Throughput = float64(res.Solves) / res.Window.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	res.P50, res.P95 = percentile(latencies, 0.50), percentile(latencies, 0.95)
	res.P99, res.P999 = percentile(latencies, 0.99), percentile(latencies, 0.999)
	return res
}

// percentile returns the p-quantile of ascending latencies (index
// ⌊p·(n-1)⌋; 0 with no samples).
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// poll calls done every interval until it reports true and returns how
// long that took; after timeout it gives up with an error naming what
// it waited for.
func poll(what string, timeout, every time.Duration, done func() bool) (time.Duration, error) {
	start := time.Now()
	deadline := start.Add(timeout)
	for time.Now().Before(deadline) {
		if done() {
			return time.Since(start), nil
		}
		time.Sleep(every)
	}
	return 0, fmt.Errorf("no %s within %v", what, timeout)
}
