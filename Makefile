GO ?= go

.PHONY: build test vet lint race checktest chaos smoke perfsmoke verify bench bench-e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis: the gesp-lint suite (detclock,
# hotalloc, mapiter, floatcmp) over the whole module. See DESIGN.md
# "Static analysis & checked builds".
lint:
	$(GO) run ./cmd/gesp-lint ./...

# Race-check the concurrent engines: the DAG-scheduled shared-memory
# factorization, the batch solve cut into one goroutine per block of
# right-hand sides (core, over refine's blocked loop and lu's sweeps),
# the simulated MPI runtime, the distributed engine built on it, the
# caching, batching solve service, the fleet router above it with its
# policy primitives and HA control plane, and the shared micro-kernels
# (read-only operand concurrency).
race:
	$(GO) test -race -short ./internal/sched/... ./internal/lu/... ./internal/core/... ./internal/refine/... ./internal/mpisim/... ./internal/dist/... ./internal/serve/... ./internal/fleet/... ./internal/fleetrpc/... ./internal/fleetha/... ./internal/kernels/...

# Checked build: rerun the test suite with the gespcheck tag, which
# re-validates every structural invariant (CSC columns, supernode
# partitions, etree consistency, task-DAG acyclicity and dependency
# counters) at the pipeline's phase boundaries.
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
#    retry/hedge failover, the prober-only rejoin path;
#  - coordinator-HA chaos: leader election, fenced replication, registry
#    takeover and the redirect-following client under a real leader
#    SIGKILL, and the SLO controller's promote/spawn/drain convergence
#    against an injected straggler;
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

# Smoke runs: short closed-loop runs of the commands and one iteration
# of the benchmarks behind them, to catch wiring breakage in the
# binaries and the experiment harness without the cost of a sweep.
#  - serving layer: cmd/gesp-serve's load generator + the serve benchmark;
#  - fleet: cmd/gesp-fleet's load generator through the router
#    (replication and a mid-run drain exercised) + the ring and fleet
#    benchmarks;
#  - distributed fault tolerance: the recovery-overhead table at reduced
#    scale, which fails if any injected fault (kill, stall, dropped
#    message) is not recovered with bit-identical factors.
smoke:
	$(GO) run ./cmd/gesp-serve -load -clients 8 -duration 300ms -patterns 2 -variants 3 -scale 0.25
	$(GO) test -run - -bench BenchmarkServeThroughput -benchtime 1x .
	$(GO) run ./cmd/gesp-fleet -load -workers 8 -duration 300ms -patterns 3 -variants 3 -scale 0.25 -drain-mid
	$(GO) test -run - -bench 'BenchmarkRing|BenchmarkFleet' -benchtime 1x ./internal/fleet/ ./internal/fleetrpc/
	$(GO) run ./cmd/gesp-bench -exp faults -scale 0.25

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
