// Package perf is the kernel campaign's measurement and regression-gate
// infrastructure: a schema-versioned benchmark snapshot (BENCH_<n>.json),
// a suite that measures the micro-kernels and the factorization engines,
// and a comparator that gates hot-path regressions.
//
// Gate policy (see DESIGN.md "Kernel campaign & perf gate"): allocs/op
// on hot-path entries is machine-independent and deterministic, so any
// increase fails everywhere, including CI. ns/op is gated at a relative
// tolerance (default 5%) but only means something for two snapshots
// taken on the same machine — CI therefore runs the comparator in
// allocs-only mode against the committed BENCH_0.json, while the full
// ns gate backs same-machine before/after comparisons (make bench on a
// dev box, gesp-perfdiff old new).
package perf

// SchemaVersion identifies the BENCH_*.json layout. Bump on any
// incompatible change; the reader refuses mismatched files so the
// comparator never silently diffs across layouts.
const SchemaVersion = 1

// File is one benchmark snapshot.
type File struct {
	SchemaVersion int     `json:"schema_version"`
	GoVersion     string  `json:"go_version"`
	GOARCH        string  `json:"goarch"`
	Scale         float64 `json:"scale"` // testbed matrix scale the engines ran at
	Quick         bool    `json:"quick"` // reduced-iteration smoke snapshot
	Entries       []Entry `json:"entries"`
}

// Entry is one measurement.
//
// HotPath marks entries whose regression fails the gate: the
// deterministic single-threaded measurements (kernel micro-benchmarks,
// the serial engines, the batched solve). Concurrency-scheduled
// measurements (dag-parallel) are recorded for trajectory but never
// gated — their wall time is scheduler noise.
type Entry struct {
	Name    string `json:"name"`
	Class   string `json:"class"` // "kernel" | "solve" | "analysis" | "engine" | "fleet" | "sim"
	HotPath bool   `json:"hot_path"`

	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp is -1 when allocations were not measured for this
	// entry (engine-class runs allocate by design; only hot kernels
	// carry the zero-alloc guarantee).
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`

	// FlopsPerOp is the arithmetic work of one operation when known;
	// Mflops = FlopsPerOp / (NsPerOp/1e9) / 1e6. For class "sim" the
	// Mflops is the simulated (virtual-clock) rate per engine.
	FlopsPerOp float64 `json:"flops_per_op,omitempty"`
	Mflops     float64 `json:"mflops,omitempty"`
}
