// Package fleetrpc is the solve fleet: one router (Fleet) that places
// requests by consistent-hashing each system's sparsity-pattern
// fingerprint over a set of shards, and the HTTP/JSON wire format that
// lets a shard be a separate gesp-serve process.
//
// A shard is anything behind the Shard interface. Two implementations
// exist: LocalShard wraps an in-process serve.Service, and Client
// speaks the wire format (/v1/matrix, /v1/solve, /v1/stats,
// /v1/health, /v1/handoff, /v1/degraded) to a LocalShard's Mux in
// another process. Both return the same typed errors, so the router
// classifies a failure once, whatever produced it.
//
// What the router owns:
//
//   - health-checked membership: a prober walks every member on an
//     interval, failure-count thresholds drive an alive → suspect →
//     dead state machine, and a death rebuilds the ring (atomic swap)
//     and re-replicates registered patterns onto the survivors;
//   - a retry/timeout/backoff layer: jittered exponential backoff
//     under a per-request deadline budget, retry-after hints
//     respected, typed retryable-vs-terminal errors (solves are
//     idempotent, so retrying them is always safe);
//   - one hedge policy: a straggler hedge races the first replica
//     after HedgeAfter, only while the shared token bucket
//     (fleet.HedgeBudget) grants tokens, plus an immediate same-attempt
//     failover when the primary fails fast;
//   - one replication policy: every submit lands on Replication
//     members, and PromotePattern/DemotePattern widen or restore a
//     single pattern at runtime (the SLO controller's lever);
//   - graceful drain: a leaving shard's Handoff export is imported by
//     the post-drain owners before the ring swaps, and whatever an
//     export cannot carry (everything, across a process boundary) is
//     re-factored from the wire-matrix registry;
//   - graceful degradation: when every placement is down and healing
//     fails, the solve falls back to the resilience ladder's iterative
//     path (ILU0-preconditioned GMRES on the registered matrix) on any
//     live shard instead of failing the request.
package fleetrpc

import (
	"fmt"

	"gesp/internal/sparse"
)

// MatrixRequest is the POST /v1/matrix body: a triplet (COO) matrix.
// Duplicate (row, col) entries are summed, the usual assembly rule.
type MatrixRequest struct {
	N    int       `json:"n"`
	Rows []int     `json:"rows"`
	Cols []int     `json:"cols"`
	Vals []float64 `json:"vals"`
}

// MatrixResponse answers a submit with the solve handle. Nnz counts
// the triplet entries received; Shard is the owning member's id, set
// only by a coordinator (it is what POST /v1/drain addresses).
type MatrixResponse struct {
	Handle string `json:"handle"`
	N      int    `json:"n"`
	Nnz    int    `json:"nnz"`
	Shard  *int   `json:"shard,omitempty"`
}

// SolveRequest is the POST /v1/solve body.
type SolveRequest struct {
	Handle string    `json:"handle"`
	B      []float64 `json:"b"`
}

// SolveResponse carries one solution vector.
type SolveResponse struct {
	X []float64 `json:"x"`
}

// HealthResponse is the GET /v1/health body: deliberately tiny, so the
// prober's cost on a loaded shard is one atomic load and one cheap
// cache-occupancy read.
type HealthResponse struct {
	Status     string `json:"status"`
	QueueDepth int64  `json:"queue_depth"`
	Factors    int    `json:"factors"`
}

// HandoffResponse answers POST /v1/handoff: the shard has drained
// (queued solves finished, admission closed) and these are the handles
// whose factors were resident. Factors themselves cannot cross a
// process boundary, so the coordinator re-homes each handle by
// re-submitting its registered matrix to the new ring owner.
type HandoffResponse struct {
	Handles []string `json:"handles"`
}

// DegradedRequest is the POST /v1/degraded body: solve A·x = b
// iteratively from the raw matrix, without factoring or caching — the
// request of last resort when a pattern's owner and replicas are all
// dead and the caller still holds the matrix. The answer is a
// SolveResponse.
type DegradedRequest struct {
	Matrix MatrixRequest `json:"matrix"`
	B      []float64     `json:"b"`
}

// ErrorResponse is every non-200 body. RetryAfterNS repeats the
// Retry-After header at full resolution: the header speaks whole
// seconds, a shed queue's hint is a fraction of a millisecond.
type ErrorResponse struct {
	Error        string `json:"error"`
	RetryAfterNS int64  `json:"retry_after_ns,omitempty"`
}

// DrainRequest is the POST /v1/drain body a coordinator accepts.
type DrainRequest struct {
	Shard int `json:"shard"`
}

// DrainResponse answers a completed drain.
type DrainResponse struct {
	Drained int `json:"drained"`
}

// WireMatrix encodes a CSC matrix as the triplet wire form.
func WireMatrix(a *sparse.CSC) MatrixRequest {
	nnz := a.Nnz()
	req := MatrixRequest{
		N:    a.Rows,
		Rows: make([]int, 0, nnz),
		Cols: make([]int, 0, nnz),
		Vals: make([]float64, 0, nnz),
	}
	for j := 0; j < a.Cols; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			req.Rows = append(req.Rows, a.RowInd[p])
			req.Cols = append(req.Cols, j)
			req.Vals = append(req.Vals, a.Val[p])
		}
	}
	return req
}

// AssembleMatrix validates and assembles the wire triplet form into a
// CSC matrix, summing duplicate entries.
func AssembleMatrix(req MatrixRequest) (*sparse.CSC, error) {
	if req.N <= 0 {
		return nil, fmt.Errorf("matrix dimension %d, want positive", req.N)
	}
	if len(req.Rows) != len(req.Vals) || len(req.Cols) != len(req.Vals) {
		return nil, fmt.Errorf("triplet arrays disagree: %d rows, %d cols, %d vals",
			len(req.Rows), len(req.Cols), len(req.Vals))
	}
	if len(req.Vals) < req.N {
		// Fewer entries than columns leaves a column empty: structurally
		// singular. Rejecting it here also bounds the O(n) assembly
		// allocation by the size of the body that was actually sent.
		return nil, fmt.Errorf("%d entries for a %dx%d matrix: structurally singular", len(req.Vals), req.N, req.N)
	}
	t := sparse.NewTriplet(req.N, req.N)
	for k := range req.Vals {
		i, j := req.Rows[k], req.Cols[k]
		if i < 0 || i >= req.N || j < 0 || j >= req.N {
			return nil, fmt.Errorf("entry %d at (%d,%d) outside %dx%d", k, i, j, req.N, req.N)
		}
		t.Append(i, j, req.Vals[k])
	}
	return t.ToCSC(), nil
}
