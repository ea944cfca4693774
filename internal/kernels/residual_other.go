//go:build !amd64

package kernels

// residualRunAVX2 is never called off amd64; it runs the Go body up to
// the next column with a zero lane, as the assembly does.
func residualRunAVX2(r, d []float64, ptr, ind []int, val, x []float64, j int) int {
	for ; j+1 < len(ptr); j++ {
		xj := (*[Lanes]float64)(x[j*Lanes:])
		if anyZero(xj) {
			break
		}
		residualColumn(r, d, ind[ptr[j]:ptr[j+1]], val[ptr[j]:ptr[j+1]], xj)
	}
	return j
}

// residualBerrAVX2 is never called off amd64; it forwards to the Go body.
func residualBerrAVX2(r, d, b []float64, berr *[Lanes]float64) (nan, inf uint8) {
	return residualBerr(r, d, b, berr)
}
