// Command gesp-serve runs the GESP solve service: an HTTP JSON API over
// internal/serve's factor-caching, RHS-batching solver. Submit a matrix
// once, then solve as many right-hand sides against it as you like —
// pattern-identical resubmissions skip symbolic analysis, identical
// resubmissions skip factorization, and concurrent solves of one system
// coalesce into batched triangular sweeps.
//
// The wire format is internal/fleetrpc's, which makes every gesp-serve
// process a shard any fleetrpc coordinator (gesp-fleet -join) can
// route over, health-check, drain, and fail over from:
//
//	POST /v1/matrix    {"n":N,"rows":[...],"cols":[...],"vals":[...]},
//	                   or a fleetrpc.Matrix frame (what a coordinator sends)
//	                   -> {"handle":"p….v….n…","n":N,"nnz":…}
//	POST /v1/solve     {"handle":"…","b":[...]}
//	                   -> {"x":[...]}
//	GET  /v1/stats     -> serve.Stats JSON
//	GET  /v1/health    -> {"status":"ok"|"draining",...}
//	POST /v1/handoff   -> drain; returns the resident handles
//	POST /v1/degraded  -> iterative solve from a raw matrix frame and b
package main

import (
	"flag"
	"log"
	"net/http"
	"time"

	"gesp/internal/fleetrpc"
	"gesp/internal/resilience"
	"gesp/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gesp-serve: ")
	var (
		addr     = flag.String("addr", ":8742", "HTTP listen address")
		maxBatch = flag.Int("max-batch", 16, "max right-hand sides per batched sweep")
		maxDelay = flag.Duration("max-delay", 200*time.Microsecond, "max time a solve waits for its batch to fill")
		queueCap = flag.Int("queue-cap", 256, "per-factor solve queue bound (beyond it requests are shed)")
		maxFac   = flag.Int("max-factors", 1024, "factor cache entry cap")
		maxBytes = flag.Int64("max-factor-bytes", 1<<30, "factor cache memory budget (estimated bytes)")
		maxSym   = flag.Int("max-symbolic", 256, "symbolic (pattern) cache entry cap")
		noRefine = flag.Bool("no-refine", false, "skip iterative refinement on served solves (faster, berr not driven to eps)")

		resil        = flag.Bool("resilience", false, "run every solve through the numerical resilience ladder (escalates from static pivoting to GEPP on backward-error trouble)")
		rungDeadline = flag.Duration("rung-deadline", 0, "resilience: per-rung time budget (0 = unbounded)")
		solveTimeout = flag.Duration("solve-timeout", 0, "per-request solve deadline (0 = none)")
		degrade      = flag.Bool("degrade", false, "on overload, serve a degraded factor-preconditioned GMRES solve instead of shedding with 503")

		chaos = flag.Bool("chaos-delay", false, "accept POST /v1/chaos/delay to inject per-solve latency (testing/benchmarks only)")
	)
	flag.Parse()

	cfg := serve.DefaultConfig()
	cfg.MaxBatch = *maxBatch
	cfg.MaxDelay = *maxDelay
	cfg.QueueCap = *queueCap
	cfg.MaxFactors = *maxFac
	cfg.MaxFactorBytes = *maxBytes
	cfg.MaxSymbolic = *maxSym
	if *noRefine {
		cfg.Options.Refine = false
	}
	if *resil {
		cfg.Options.Resilience = &resilience.Policy{RungDeadline: *rungDeadline}
	}
	cfg.SolveTimeout = *solveTimeout
	cfg.DegradeOnOverload = *degrade

	var h http.Handler = fleetrpc.NewLocalShard(*addr, serve.New(cfg)).Mux()
	if *chaos {
		h = fleetrpc.WithChaosDelay(h)
	}
	log.Printf("listening on %s (max-batch %d, max-delay %v)", *addr, cfg.MaxBatch, cfg.MaxDelay)
	log.Fatal(http.ListenAndServe(*addr, h))
}
