//go:build !amd64

package kernels

// spAxpyRunAVX2 and axpyAVX2 are never called off amd64 (useAVX2 is
// false); they forward to the Go bodies so that the callers compile
// unchanged.

func spAxpyRunAVX2(w []float64, ind []int, val []float64, end []int, u []float64) {
	spAxpyRun(w, ind, val, end, u)
}

func axpyAVX2(y, x []float64, a float64) {
	axpy(y, x, a)
}
