package main

// metricDef names a metric as BENCHMARK.json lists it. The tables here
// are the source; a test holds BENCHMARK.json to them.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the system sees, printed by every
// untraced run of every workload.
//
//	op_p10_ms  fastest-decile latency of the workload's primary
//	           operation: a round (in-process workloads, dist-sim), one
//	           POST /v1/solve (fleet-solve) or one refactor-submit
//	           (fleet-churn)
//	setup_s    median of the run's set-ups
//
// The fastest decile, not the median, because interference on the
// shared reference box only ever adds time and comes in bursts of
// seconds (a neighbour's cache and memory traffic — a cache-resident
// loop does not feel it — and the collector's own pacing). Over eight
// cold-solve runs in a noisy hour the spread of the median was 37 %,
// of the lower quartile 23 %, of the decile 11 %; in a quiet hour all
// three were 3-4 %. The median, the tail, throughput and peak RSS are
// per-layer metrics: recorded, not bounded.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_p10_ms", "ms", "lower"},
}

// perLayer are the single-layer metrics of the traced run. A workload
// that does not cross a layer reports 0 for it: that is the prediction
// "a change to this layer does not move this workload", stated as a
// number.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit, better})
		}
	}
	perClass := func(unit, better string, classes []string, names ...string) {
		for _, n := range names {
			for _, c := range classes {
				defs = append(defs, metricDef{n + "." + c, unit, better})
			}
		}
	}
	all := classNames[:]

	// The analysis phases, replayed on cold-solve.
	perClass("ms", "lower", all, "equil.equilibrate_ms", "matching.mc64_ms", "ordering.order_ms", "symbolic.factorize_ms")
	perClass("count", "lower", all, "symbolic.nnz_lu", "symbolic.flops")
	perClass("count", "higher", all, "symbolic.avg_super")
	// Numeric factorization, triangular solve, refinement.
	perClass("ms", "lower", all, "lu.factorize_ms", "lu.solve_ms")
	perClass("count", "lower", all, "lu.tiny_pivots")
	perClass("Mflop/s", "higher", all, "lu.factor_mflops")
	perClass("ms", "lower", all, "refine.refine_ms")
	perClass("count", "lower", all, "refine.steps")
	// Whole calls into core, serial and Workers=2.
	perClass("ms", "lower", all, "core.new_ms", "core.new_self_ms", "core.refactor_ms", "core.solve_ms",
		"core.solve_batch16_ms", "core.refactor_par2_ms", "core.solve_par2_ms")
	perClass("ratio", "lower", all, "ratio.par2_over_serial")
	add("Mflop/s", "higher", "kernels.matmul_mflops.fat", "kernels.matmul_mflops.thin",
		"kernels.trsm_upper_mflops.fat", "kernels.trsm_upper_mflops.thin",
		"kernels.spaxpy_mflops", "kernels.solve_sparse_multi16_mflops")

	// The depth ladder of a warm solve: d0 core, d1 serve, d2 one shard
	// over HTTP, d3 a coordinator, d4 the HA leader.
	add("ms", "lower", "core.solve_warm_ms", "serve.solve_ms", "rpc.shard_solve_ms", "fleetrpc.solve_ms", "fleetha.solve_ms")
	add("us", "lower", "serve.solve_overhead_us", "rpc.shard_hop_us", "fleetrpc.route_hop_us", "fleetha.hop_us")
	perClass("%", "lower", all, "client.hop_share_pct")
	// The same ladder for a refactor-submit, and the serve cache paths.
	add("ms", "lower", "serve.submit_cold_ms", "serve.submit_refactor_ms", "rpc.shard_submit_refactor_ms",
		"fleetrpc.submit_refactor_ms", "fleetha.submit_refactor_ms", "fleetha.submit_quorum_overhead_ms")
	add("us", "lower", "serve.submit_hit_us")
	// Shard and coordinator counters over the window, from /v1/stats.
	add("count", "higher", "serve.batch_mean", "serve.factor_hit_ratio", "serve.symbolic_hit_ratio")
	add("count", "lower", "serve.factor_evictions", "serve.expired",
		"fleetrpc.retries", "fleetrpc.hedged", "fleetrpc.resubmits", "fleetrpc.degraded", "fleetrpc.failed")
	add("B", "lower", "wire.solve_req_bytes", "wire.matrix_req_bytes")
	add("us", "lower", "wire.codec_us")

	// The simulated distributed engine at P=16.
	two := []string{classNames[mesh], classNames[fill]}
	perClass("count", "lower", two, "dist.factor_msgs", "dist.factor_bytes", "dist.factor_comm_frac", "dist.solve_msgs", "dist.solve_comm_frac")
	perClass("count", "higher", two, "dist.factor_load_balance", "dist.pipeline_gain")
	perClass("ms", "lower", two, "mpisim.wall_ms")
	add("virtual-s", "lower", "dist.sim_factor_s", "dist.sim_solve_s")

	// The benchmark's own client, and the two closure checks.
	add("ms", "lower", "client.op_p50_ms", "client.op_tail_ms", "client.solve_p50_ms", "client.solve_p99_ms")
	add("1/s", "higher", "client.ops_per_s")
	add("MB", "lower", "client.peak_rss_mb")
	add("%", "lower", "client.trace_overhead_pct", "check.waterfall_gap_pct", "check.phase_agreement_pct")
	return defs
}
