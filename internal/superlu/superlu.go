// Package superlu provides the supernodal blocked right-looking
// factorization engines — the uniprocessor organization of SuperLU that
// the paper's performance discussion presumes (dense block kernels over
// the supernode partition, instead of scalar column arithmetic), plus
// its shared-memory parallel counterpart scheduled over the static task
// DAG (internal/sched). The serial engine is also the single-process
// reference for the distributed algorithm: both run the identical block
// schedule, so their factors agree exactly.
package superlu

import (
	"fmt"

	"gesp/internal/dist"
	"gesp/internal/lu"
	"gesp/internal/sched"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// Factorize runs the blocked right-looking GESP factorization serially
// and returns standard column-format factors (interchangeable with
// lu.Factorize output, up to round-off ordering).
func Factorize(a *sparse.CSC, sym *symbolic.Result, opts lu.Options) (*lu.Factors, error) {
	if err := checkDims(a, sym); err != nil {
		return nil, err
	}
	blocks, tiny, err := dist.FactorizeBlocked(a, sym, opts)
	if err != nil {
		return nil, err
	}
	return gather(a, sym, blocks, tiny), nil
}

// FactorizeParallel runs the same block schedule on the sched DAG
// worker pool: panel factors, panel solves and Schur updates execute
// concurrently wherever the static dependency structure allows. workers
// <= 0 uses GOMAXPROCS. The factors agree with the serial engines up to
// the rounding reordering of commuted update sums (componentwise, not
// bitwise).
func FactorizeParallel(a *sparse.CSC, sym *symbolic.Result, opts lu.Options, workers int) (*lu.Factors, error) {
	if err := checkDims(a, sym); err != nil {
		return nil, err
	}
	blocks, tiny, err := sched.Factorize(a, sym, opts, workers)
	if err != nil {
		return nil, err
	}
	return gather(a, sym, blocks, tiny), nil
}

func checkDims(a *sparse.CSC, sym *symbolic.Result) error {
	if a.Rows != sym.N || a.Cols != sym.N {
		return fmt.Errorf("superlu: matrix is %dx%d, symbolic structure is for n=%d", a.Rows, a.Cols, sym.N)
	}
	return nil
}

// gather assembles the factored blocks into column-major factor
// arrays parallel to the symbolic pattern.
func gather(a *sparse.CSC, sym *symbolic.Result, blocks *dist.BlockGrid, tiny int) *lu.Factors {
	f := dist.Assemble(a, sym, blocks.At)
	f.TinyPivots = tiny
	return f
}
