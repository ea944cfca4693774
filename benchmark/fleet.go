package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gesp/internal/core"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

const (
	fleetClients = 2   // closed-loop callers, one keep-alive connection each
	zipfS        = 1.2 // popularity skew of the systems
	// ladderSolves and ladderSubmits are the requests per depth of the
	// traced run's ladders.
	ladderSolves  = 45
	ladderSubmits = 6
)

// fleetSystem is one submitted system: a slot the clients solve
// against and, on fleet-churn, replace.
type fleetSystem struct {
	class  int
	base   *sparse.CSC // the pattern's reference values; variants are drawn from it
	a      *sparse.CSC // the values now live under handle
	handle string
}

type fleetClient struct {
	http *client
	rng  *rand.Rand
	zipf *rand.Zipf
	next int // the slot this client's next submit replaces
}

// fleet is a set-up fleet workload.
type fleet struct {
	cfg     runConfig
	name    string
	cluster *cluster
	clients []*fleetClient

	mu    sync.Mutex
	slots []fleetSystem

	coldSeq atomic.Int64 // numbers the cold-submitted patterns
	logged  atomic.Int64 // failures already explained on stderr

	before fleetCounters // at the end of set-up
}

// fleetCounters are the /v1/stats counters summed over the shards, and
// the leader's.
type fleetCounters struct {
	shard shardStats
	coord coordStats
}

func setupFleetSolve(cfg runConfig) (*session, error) { return setupFleet(cfg, "fleet-solve", false) }
func setupFleetChurn(cfg runConfig) (*session, error) { return setupFleet(cfg, "fleet-churn", true) }

// setupFleet builds and starts the topology, submits twelve systems —
// two sizes of each class, two value variants of each — through the
// leader and solves each once. With churn the shards' caches are
// smaller than the working set (8 factors, 16 symbolic analyses each)
// and the clients mix submits into the solves.
func setupFleet(cfg runConfig, name string, churn bool) (_ *session, err error) {
	var shardArgs []string
	if churn {
		shardArgs = []string{"-max-factors", "8", "-max-symbolic", "16"}
	}
	cl, err := startCluster(cfg, name, shardArgs, cfg.trace)
	if err != nil {
		return nil, err
	}
	f := &fleet{cfg: cfg, name: name, cluster: cl}
	defer func() {
		if err != nil {
			//gesp:errok — the set-up error is the one to report
			_, _ = cl.stop()
		}
	}()
	for c := 0; c < fleetClients; c++ {
		rng := stream(cfg.seed, int64(500+c))
		f.clients = append(f.clients, &fleetClient{http: newClient(), rng: rng, next: c})
	}

	// Ranked for the Zipf draw so the three most popular systems are
	// one of each class.
	type pat struct {
		class, size int
		k           int64
	}
	pats := []pat{
		{mesh, cfg.sz.cold[mesh], 0}, {fill, cfg.sz.cold[fill], 0}, {circuit, cfg.sz.cold[circuit], 0},
		{mesh, cfg.sz.small[mesh], 0}, {fill, cfg.sz.small[fill], 0}, {circuit, cfg.sz.small[circuit], 1},
	}
	for v := 0; v < 2; v++ {
		for i, p := range pats {
			base := pattern(p.class, p.size, p.k)
			a := variant(base, stream(cfg.seed, int64(400+10*v+i)))
			f.slots = append(f.slots, fleetSystem{class: p.class, base: base, a: a})
		}
	}
	for _, c := range f.clients {
		c.zipf = rand.NewZipf(c.rng, zipfS, 1, uint64(len(f.slots)-1))
	}

	// Each client submits and warm-solves half of the systems.
	errs := make([]error, fleetClients)
	var wg sync.WaitGroup
	for c := range f.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(f.slots); i += fleetClients {
				sys := &f.slots[i]
				h, _, err := f.submit(c, nil, 0, nil, f.url("/v1/matrix"), sys.a)
				if err != nil {
					errs[c] = err
					return
				}
				sys.handle = h
				b, _ := rhs(sys.a, f.clients[c].rng)
				var resp solveResponse
				if _, err := f.clients[c].http.post(nil, 0, nil, f.url("/v1/solve"), solveRequest{h, b}, &resp); err != nil {
					errs[c] = err
					return
				}
				if !accept(sys.a, resp.X, b) {
					errs[c] = fmt.Errorf("warm solve of system %d fails the oracle (berr %.3g)", i, backwardError(sys.a, resp.X, b))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if f.before, err = f.counters(); err != nil {
		return nil, err
	}

	// Each fleet workload's primary operation is the one only it
	// stresses: the read path on fleet-solve, the write path on
	// fleet-churn (whose solves and cold submits are the load beside it).
	if churn {
		return &session{clients: fleetClients, primary: "refactor", op: f.churnOp, probe: f.probe, close: cl.stop}, nil
	}
	return &session{clients: fleetClients, primary: "solve", op: f.solveOp, probe: f.probe, close: cl.stop}, nil
}

func (f *fleet) url(path string) string { return "http://" + f.cluster.leader + path }

// explain prints the first few failures; the count is in the result.
func (f *fleet) explain(what string, err error) {
	if f.logged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %s failed: %v\n", f.name, what, err)
	}
}

// submit POSTs a matrix and returns its handle and the request size.
func (f *fleet) submit(c int, tr *tracer, op int64, parent *open, url string, a *sparse.CSC) (string, int, error) {
	var resp matrixResponse
	n, err := f.clients[c].http.post(tr, op, parent, url, wireMatrix(a), &resp)
	if err == nil && (resp.Handle == "" || resp.N != a.Rows) {
		err = fmt.Errorf("POST %s: answered handle %q n=%d for an n=%d matrix", url, resp.Handle, resp.N, a.Rows)
	}
	return resp.Handle, n, err
}

// pick draws a slot by popularity and snapshots it.
func (f *fleet) pick(c int) fleetSystem {
	i := f.clients[c].zipf.Uint64()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.slots[i]
}

// solveOp is one POST /v1/solve against a Zipf-drawn system with a
// fresh right-hand side, checked once the clock has stopped.
func (f *fleet) solveOp(c int, tr *tracer, id int64) opResult {
	sys := f.pick(c)
	b, _ := rhs(sys.a, f.clients[c].rng)
	r := opResult{kind: "solve", attempted: 1}
	var resp solveResponse
	root := tr.start(id, nil, "client.solve."+classNames[sys.class])
	t0 := time.Now()
	_, err := f.clients[c].http.post(tr, id, root, f.url("/v1/solve"), solveRequest{sys.handle, b}, &resp)
	r.ms = ms(time.Since(t0))
	root.end()
	if err == nil && !accept(sys.a, resp.X, b) {
		err = fmt.Errorf("solution fails the oracle (berr %.3g)", backwardError(sys.a, resp.X, b))
	}
	if err != nil {
		f.explain("solve", err)
		r.failed = 1
	}
	return r
}

// churnOp mixes 70 % solves on a live handle, 25 % refactor-submits
// (a known pattern with new values, which replaces its slot as a
// Newton step replaces a Jacobian) and 5 % cold-submits (a circuit
// pattern nobody has seen, from the run's seed). Submits walk the
// slots in turn, so every window's submits are the same mix of sizes.
func (f *fleet) churnOp(c int, tr *tracer, id int64) opResult {
	cl := f.clients[c]
	u := cl.rng.Float64()
	if u < 0.70 {
		return f.solveOp(c, tr, id)
	}
	kind := "refactor"
	slot := cl.next % len(f.slots)
	cl.next += fleetClients
	f.mu.Lock()
	sys := f.slots[slot]
	f.mu.Unlock()
	if u >= 0.95 {
		kind = "cold"
		// Replace one of the circuit slots.
		for sys.class != circuit {
			slot = (slot + 1) % len(f.slots)
			f.mu.Lock()
			sys = f.slots[slot]
			f.mu.Unlock()
		}
		sys.base = generate(circuit, f.cfg.sz.small[circuit], stream(f.cfg.seed, 1000+f.coldSeq.Add(1)))
	}
	sys.a = variant(sys.base, cl.rng)

	r := opResult{kind: kind, attempted: 1}
	root := tr.start(id, nil, "client.submit_"+kind)
	t0 := time.Now()
	h, _, err := f.submit(c, tr, id, root, f.url("/v1/matrix"), sys.a)
	r.ms = ms(time.Since(t0))
	root.end()
	if err != nil {
		f.explain(kind+"-submit", err)
		r.failed = 1
		return r
	}
	sys.handle = h
	f.mu.Lock()
	f.slots[slot] = sys
	f.mu.Unlock()
	return r
}

// counters sums /v1/stats over the shards and reads the leader's.
func (f *fleet) counters() (fleetCounters, error) {
	var fc fleetCounters
	hc := f.clients[0].http
	for _, a := range f.cluster.shards {
		var s shardStats
		if err := hc.get("http://"+a+"/v1/stats", &s); err != nil {
			return fc, err
		}
		fc.shard.SymbolicHits += s.SymbolicHits
		fc.shard.SymbolicMisses += s.SymbolicMisses
		fc.shard.FactorHits += s.FactorHits
		fc.shard.FactorMisses += s.FactorMisses
		fc.shard.FactorEvictions += s.FactorEvictions
		fc.shard.Solves += s.Solves
		fc.shard.Batches += s.Batches
		fc.shard.Expired += s.Expired
	}
	err := hc.get(f.url("/v1/stats"), &fc.coord)
	return fc, err
}

// ratio returns num/(num+other), or 0 when nothing was counted.
func ratio(num, other uint64) float64 {
	if num+other == 0 {
		return 0
	}
	return float64(num) / float64(num+other)
}

// probe runs after the window of a traced run.
func (f *fleet) probe(tr *tracer, layer map[string]float64) error {
	after, err := f.counters()
	if err != nil {
		return err
	}
	b, a := f.before, after
	if d := a.shard.Batches - b.shard.Batches; d > 0 {
		layer["serve.batch_mean"] = float64(a.shard.Solves-b.shard.Solves) / float64(d)
	}
	layer["serve.factor_hit_ratio"] = ratio(a.shard.FactorHits-b.shard.FactorHits, a.shard.FactorMisses-b.shard.FactorMisses)
	layer["serve.symbolic_hit_ratio"] = ratio(a.shard.SymbolicHits-b.shard.SymbolicHits, a.shard.SymbolicMisses-b.shard.SymbolicMisses)
	layer["serve.factor_evictions"] = float64(a.shard.FactorEvictions - b.shard.FactorEvictions)
	layer["serve.expired"] = float64(a.shard.Expired - b.shard.Expired)
	layer["fleetrpc.retries"] = float64(a.coord.Retries - b.coord.Retries)
	layer["fleetrpc.hedged"] = float64(a.coord.Hedged - b.coord.Hedged)
	layer["fleetrpc.resubmits"] = float64(a.coord.Resubmits - b.coord.Resubmits)
	layer["fleetrpc.degraded"] = float64(a.coord.Degraded - b.coord.Degraded)
	layer["fleetrpc.failed"] = float64(a.coord.Failed - b.coord.Failed)
	layer["wire.codec_us"] = 1e3 * (median(tr.durations("wire.encode")) + median(tr.durations("wire.decode")))
	if err := f.solveLadder(tr, layer); err != nil {
		return fmt.Errorf("solve ladder: %w", err)
	}
	if err := f.submitLadder(tr, layer); err != nil {
		return fmt.Errorf("submit ladder: %w", err)
	}
	return nil
}

// ladderSystem is one of the three most popular systems (one per
// class) set up at every depth: rungs[d] reaches the same factors
// through d more layers.
type ladderSystem struct {
	fleetSystem
	rungs []func(b []float64) ([]float64, error)
}

// ladderDepths names the spans of a solve at d0..d4.
var ladderDepths = []string{"core.solve_warm", "serve.solve", "rpc.shard_solve", "fleetrpc.solve", "fleetha.solve"}

// solveLadder sends the same seeded request sequence, one client, to
// five depths in turn: d0 the core.Solver in this process, d1 a
// serve.Service in this process, d2 one gesp-serve directly, d3 the
// non-HA coordinator, d4 the HA leader. Each hop metric is the median
// of the per-request differences between adjacent depths.
func (f *fleet) solveLadder(tr *tracer, layer map[string]float64) error {
	svc := serve.New(serve.DefaultConfig())
	defer svc.Close()
	hc := f.clients[0].http
	shard := "http://" + f.cluster.shards[0]
	plain := "http://" + f.cluster.plain
	var reqBytes []float64
	httpSolve := func(base, handle string) func([]float64) ([]float64, error) {
		return func(b []float64) ([]float64, error) {
			var resp solveResponse
			n, err := hc.post(nil, 0, nil, base+"/v1/solve", solveRequest{handle, b}, &resp)
			reqBytes = append(reqBytes, float64(n))
			return resp.X, err
		}
	}

	var systems []ladderSystem
	var cold, hit []float64
	for i := 0; i < numClasses; i++ {
		f.mu.Lock()
		ls := ladderSystem{fleetSystem: f.slots[i]}
		f.mu.Unlock()
		solver, err := core.New(ls.a, core.DefaultOptions())
		if err != nil {
			return err
		}
		sp := tr.start(0, nil, "serve.submit_cold")
		h1, err := svc.Submit(ls.a)
		cold = append(cold, sp.end())
		if err != nil {
			return err
		}
		sp = tr.start(0, nil, "serve.submit_hit")
		_, err = svc.Submit(ls.a)
		hit = append(hit, sp.end())
		if err != nil {
			return err
		}
		h2, _, err := f.submit(0, nil, 0, nil, shard+"/v1/matrix", ls.a)
		if err != nil {
			return err
		}
		h3, _, err := f.submit(0, nil, 0, nil, plain+"/v1/matrix", ls.a)
		if err != nil {
			return err
		}
		ls.rungs = []func([]float64) ([]float64, error){
			solver.Solve,
			func(b []float64) ([]float64, error) { return svc.Solve(h1, b) },
			httpSolve(shard, h2),
			httpSolve(plain, h3),
			httpSolve("http://"+f.cluster.leader, ls.handle),
		}
		systems = append(systems, ls)
	}
	layer["serve.submit_cold_ms"] = median(cold)
	layer["serve.submit_hit_us"] = 1e3 * median(hit)

	rng := stream(f.cfg.seed, 600)
	depth := make([][]float64, len(ladderDepths))     // all requests
	byClass := make([][][]float64, len(ladderDepths)) // [depth][class]
	for d := range byClass {
		byClass[d] = make([][]float64, numClasses)
	}
	for q := 0; q < ladderSolves; q++ {
		ls := systems[q%len(systems)]
		b, _ := rhs(ls.a, rng)
		root := tr.start(int64(-1-q), nil, "ladder.solve."+classNames[ls.class])
		for d, solve := range ls.rungs {
			sp := tr.start(int64(-1-q), root, ladderDepths[d])
			x, err := solve(b)
			took := sp.end()
			if err != nil {
				return fmt.Errorf("%s: %w", ladderDepths[d], err)
			}
			if !accept(ls.a, x, b) {
				return fmt.Errorf("%s: solution fails the oracle (berr %.3g)", ladderDepths[d], backwardError(ls.a, x, b))
			}
			depth[d] = append(depth[d], took)
			byClass[d][ls.class] = append(byClass[d][ls.class], took)
		}
		root.end()
	}
	hop := func(d int) float64 { // median of the paired differences d − (d−1), in µs
		diffs := make([]float64, len(depth[d]))
		for i := range diffs {
			diffs[i] = depth[d][i] - depth[d-1][i]
		}
		return 1e3 * median(diffs)
	}
	for d, name := range ladderDepths {
		layer[name+"_ms"] = median(depth[d])
	}
	layer["serve.solve_overhead_us"] = hop(1)
	layer["rpc.shard_hop_us"] = hop(2)
	layer["fleetrpc.route_hop_us"] = hop(3)
	layer["fleetha.hop_us"] = hop(4)
	top := median(depth[len(depth)-1])
	sum := median(depth[0]) + (hop(1)+hop(2)+hop(3)+hop(4))/1e3
	layer["check.waterfall_gap_pct"] = 100 * math.Abs(sum-top) / top
	for c := 0; c < numClasses; c++ {
		d0, d4 := median(byClass[0][c]), median(byClass[len(byClass)-1][c])
		layer["client.hop_share_pct."+classNames[c]] = 100 * (d4 - d0) / d4
	}
	layer["wire.solve_req_bytes"] = median(reqBytes)
	return nil
}

// submitLadder times a refactor-submit — a known pattern with new
// values — at d1..d4. Every depth gets its own variant, because a
// matrix a shard has already factored would be a cache hit there.
func (f *fleet) submitLadder(tr *tracer, layer map[string]float64) error {
	svc := serve.New(serve.DefaultConfig())
	defer svc.Close()
	rng := stream(f.cfg.seed, 700)
	f.mu.Lock()
	systems := append([]fleetSystem(nil), f.slots[:numClasses]...)
	f.mu.Unlock()
	for _, sys := range systems {
		// Seed every depth's symbolic cache with the pattern.
		if _, err := svc.Submit(sys.a); err != nil {
			return err
		}
		for _, base := range []string{f.cluster.shards[0], f.cluster.plain} {
			if _, _, err := f.submit(0, nil, 0, nil, "http://"+base+"/v1/matrix", sys.a); err != nil {
				return err
			}
		}
	}
	spans := []string{"serve.submit_refactor", "rpc.shard_submit_refactor", "fleetrpc.submit_refactor", "fleetha.submit_refactor"}
	urls := []string{"", f.cluster.shards[0], f.cluster.plain, f.cluster.leader}
	depth := make([][]float64, len(spans))
	var reqBytes []float64
	for q := 0; q < ladderSubmits; q++ {
		sys := systems[q%len(systems)]
		root := tr.start(int64(-1000-q), nil, "ladder.submit."+classNames[sys.class])
		for d, name := range spans {
			a := variant(sys.base, rng)
			sp := tr.start(int64(-1000-q), root, name)
			var err error
			if d == 0 {
				_, err = svc.Submit(a)
			} else {
				var n int
				_, n, err = f.submit(0, nil, 0, nil, "http://"+urls[d]+"/v1/matrix", a)
				reqBytes = append(reqBytes, float64(n))
			}
			depth[d] = append(depth[d], sp.end())
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		root.end()
	}
	for d, name := range spans {
		layer[name+"_ms"] = median(depth[d])
	}
	quorum := make([]float64, len(depth[3]))
	for i := range quorum {
		quorum[i] = depth[3][i] - depth[2][i]
	}
	layer["fleetha.submit_quorum_overhead_ms"] = median(quorum)
	layer["wire.matrix_req_bytes"] = median(reqBytes)
	return nil
}
