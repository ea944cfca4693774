//go:build !amd64

package kernels

// useAVX2 is false off amd64: every kernel with an assembly body runs
// its Go twin.
const useAVX2 = false

// tileAxpyAVX2 is never called off amd64; it forwards to the Go body so
// that the sweeps compile unchanged.
func tileAxpyAVX2(t []float64, ind []int, val []float64, x *[Lanes]float64) {
	tileAxpy(t, ind, val, x)
}

// tileDivAVX2 is never called off amd64; it forwards to the Go body.
func tileDivAVX2(x *[Lanes]float64, d float64) {
	tileDiv(x, d)
}
