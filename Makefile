GO ?= go

.PHONY: build test vet lint race checktest chaos smoke perfsmoke verify bench bench-e2e fuzz-wire fuzz-kernels

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# vet's asmdecl pass checks the frames and argument names of the AVX2
# kernels (tileAxpyAVX2, tileDivAVX2, spAxpyRunAVX2, axpyAVX2,
# residualRunAVX2, residualBerrAVX2) against their Go
# declarations; the arm64 pass keeps the build without assembly (the
# kernels' pure-Go bodies) compiling.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/kernels/... ./internal/lu/... ./internal/refine/... ./internal/core/...

# Project-specific static analysis: the gesp-lint suite (detclock,
# errdrop, floatcmp, guardedby, hotalloc, mapiter) over the whole
# module. See DESIGN.md "Static analysis & checked builds".
lint:
	$(GO) run ./cmd/gesp-lint ./...

# Race-check the concurrent engines: the statically scheduled parallel
# factorization (lu's subtree-plus-pipeline column steps), the batch
# solve cut into one goroutine per block of right-hand sides (core, over
# refine's blocked loop and lu's sweeps, with the resilience ladder's
# rung 0 run on those goroutines),
# the simulated MPI runtime, the distributed engine built on it, the
# caching, batching solve service, the fleet router above it with its
# policy primitives and HA control plane, and the shared micro-kernels
# (read-only operand concurrency).
race:
	$(GO) test -race -short ./internal/lu/... ./internal/core/... ./internal/refine/... ./internal/resilience/... ./internal/mpisim/... ./internal/dist/... ./internal/serve/... ./internal/fleet/... ./internal/fleetrpc/... ./internal/fleetha/... ./internal/kernels/...

# Checked build: rerun the test suite with the gespcheck tag, which
# re-validates every structural invariant (CSC columns, supernode
# partitions, etree consistency, the A+Aᵀ dependency tree and the
# parallel schedule built on it) at the pipeline's phase boundaries.
checktest:
	$(GO) test -tags gespcheck ./internal/...

# Chaos drill, everything under the race detector. In order:
#  - the deterministic fault-injection suite (faultsim), the resilience
#    ladder's rung-by-rung recovery tests, the laddered core integration,
#    the serve-layer chaos tests, and the distributed chaos suite
#    (chaos-injected mpisim watchdog + checkpoint/restart factorization)
#    with the gespcheck invariants on, so an escalation that corrupts
#    structure, races the batcher, or breaks deterministic recovery
#    fails loudly;
#  - process-kill chaos: the fleet over real shard processes under real
#    SIGKILL and SIGSTOP — re-exec'd shards, health-checked membership,
#    retry/hedge failover, the prober-only rejoin path — and the re-exec
#    harness itself (children serve on sockets the parent bound for
#    them, and a killed child's port refuses connections);
#  - coordinator-HA chaos: leader election, fenced replication, registry
#    takeover and the redirect-following client under a real leader
#    SIGKILL;
#  - a short run of the fleetproc and ha ablations, so the end-to-end
#    pipelines (spawn, load, kill, detect, fail over, report) stay wired.
# The process tests skip themselves under -short, which is why
# `make race` does not cover them.
chaos:
	$(GO) test -race -tags gespcheck ./internal/faultsim/... ./internal/resilience/... ./internal/core/... ./internal/serve/... ./internal/mpisim/... ./internal/dist/...
	$(GO) test -race -count=1 -run 'TestChaos|TestSpawnAndKill' ./internal/fleetrpc/ ./internal/faultsim/
	$(GO) test -race -count=1 -run 'TestHA' ./internal/fleetha/
	$(GO) run ./cmd/gesp-bench -exp fleetproc -fleet-workers 4 -fleet-duration 500ms -scale 0.2
	$(GO) run ./cmd/gesp-bench -exp ha -fleet-workers 4 -fleet-duration 800ms -scale 0.2

# Fuzz the wire decoders — the solve body's handle read, the JSON
# front doors' scanned MatrixRequest and SolveRequest (each against
# encoding/json), the matrix frame (and the degraded body around it),
# the HA replicate/state frame — for 10 s each. `make test` runs only
# their seed corpora; this gives them real fuzzing time, outside verify.
fuzz-wire:
	$(GO) test -run '^$$' -fuzz '^FuzzWireHandle$$' -fuzztime 10s ./internal/fleetrpc/
	$(GO) test -run '^$$' -fuzz '^FuzzMatrixRequest$$' -fuzztime 10s ./internal/fleetrpc/
	$(GO) test -run '^$$' -fuzz '^FuzzSolveRequest$$' -fuzztime 10s ./internal/fleetrpc/
	$(GO) test -run '^$$' -fuzz '^FuzzMatrixFrame$$' -fuzztime 10s ./internal/fleetrpc/
	$(GO) test -run '^$$' -fuzz '^FuzzReplicateFrame$$' -fuzztime 10s ./internal/fleetha/

# Fuzz the numeric kernels against their plain-loop oracles for 10 s
# each: the column engines against each other (FuzzFactorizeEnginesAgree:
# Factorize, the schedule at 2 and 3 workers, the plain loop, on random
# matgen systems with planted zero diagonals, tiny pivots and non-finite
# entries), the supernode-run update, the dense product, the batched
# tile sweeps and the tile residual pass (against ResidualBerr per
# vector). `make test` runs their seed corpora; like fuzz-wire this
# stays outside verify.
fuzz-kernels:
	$(GO) test -run '^$$' -fuzz '^FuzzFactorizeEnginesAgree$$' -fuzztime 10s ./internal/lu/
	$(GO) test -run '^$$' -fuzz '^FuzzSpAxpyColsMatchesOracle$$' -fuzztime 10s ./internal/kernels/
	$(GO) test -run '^$$' -fuzz '^FuzzMatMulMatchesOracle$$' -fuzztime 10s ./internal/kernels/
	$(GO) test -run '^$$' -fuzz '^FuzzSolveTileMatchesOracle$$' -fuzztime 10s ./internal/kernels/
	$(GO) test -run '^$$' -fuzz '^FuzzResidualTileMatchesOracle$$' -fuzztime 10s ./internal/kernels/

# Smoke runs: short closed-loop runs of the experiment harness and one
# iteration of the benchmarks behind them, to catch wiring breakage in
# the binaries and the harness without the cost of a sweep.
#  - serving layer: the serve study's three batching arms + the serve
#    benchmark;
#  - fleet: the fleet study through the router (shard scaling, hedging,
#    and a mid-run drain that fails the run if it loses a request) + the
#    ring and fleet benchmarks;
#  - distributed fault tolerance: the recovery-overhead table at reduced
#    scale, which fails if any injected fault (kill, stall, dropped
#    message) is not recovered with bit-identical factors;
#  - the §4 complex application: the quantum-chemistry example, which
#    fails if its refinement does not converge.
smoke:
	$(GO) run ./cmd/gesp-bench -exp serve -serve-duration 50ms -scale 0.25
	$(GO) test -run - -bench BenchmarkServeThroughput -benchtime 1x .
	$(GO) run ./cmd/gesp-bench -exp fleet -fleet-duration 50ms -fleet-workers 8 -scale 0.25
	$(GO) test -run - -bench 'BenchmarkRing|BenchmarkFleet' -benchtime 1x ./internal/fleet/ ./internal/fleetrpc/
	$(GO) run ./cmd/gesp-bench -exp faults -scale 0.25
	$(GO) run ./examples/quantumchem

# Perf-gate smoke: regenerate the bench file quickly (1 rep, no
# min-time floor) and diff it against the committed baseline
# BENCH_0.json. Machine-independent gating only (-allocs-only): a CI
# runner's ns/op is not comparable to the baseline machine's, but an
# allocs/op increase on a //gesp:hotpath entry is a regression
# anywhere. Full same-machine ns/op gating: make bench (fresh
# BENCH_N.json) + gesp-perfdiff old new.
perfsmoke:
	$(GO) run ./cmd/gesp-benchdump -quick -o BENCH_head.json
	$(GO) run ./cmd/gesp-perfdiff -allocs-only BENCH_0.json BENCH_head.json

# The full pre-commit gate: static checks, build, the complete test
# suite, the race detector over the concurrent packages, the
# invariant-checked build, the chaos drill, the smoke runs, and the
# perf-gate smoke.
verify: vet lint build test race checktest chaos smoke perfsmoke

# Full benchmark sweep: every package's Go benchmarks, then the
# schema-versioned bench file (ns/op, allocs/op, Mflops per kernel and
# engine) the perf gate diffs against. Regenerates BENCH_0.json in
# place; commit the refresh when intentionally re-baselining.
bench:
	$(GO) test -bench=. -benchmem ./...
	$(GO) run ./cmd/gesp-benchdump -o BENCH_0.json

# End-to-end benchmark smoke (BENCHMARK.json, benchmark/): the
# reduced-size run of every workload with its oracle on, then one short
# traced cold-solve at full size, which leaves the per-layer metrics and
# closure checks in benchmark/results/run-cold-solve-traced.json. Its own
# CI step after verify, not part of it: the numbers depend on the runner,
# and the gate on them is the driver's paired parent/change comparison.
bench-e2e:
	$(GO) test ./benchmark/
	$(GO) run ./benchmark -workload cold-solve -seconds 3 -trace 1
