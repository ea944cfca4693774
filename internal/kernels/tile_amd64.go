//go:build amd64

package kernels

// useAVX2 is decided once, at package init: the tile sweeps, the tile
// residual pass and the supernode-column update run their assembly
// bodies (tileAxpyAVX2, tileDivAVX2, residualRunAVX2, residualBerrAVX2,
// spAxpyRunAVX2, axpyAVX2) when the CPU has AVX2 and the operating
// system saves the YMM registers across context switches, their Go
// twins otherwise.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports CPUID's AVX2 bit, with AVX and OSXSAVE set and the
// SSE and AVX state enabled in XCR0 (XGETBV).
func cpuHasAVX2() bool

// tileAxpyAVX2 is tileAxpy with each row held in two YMM registers:
// per entry one broadcast of val[q], two VMULPD by the pivots and two
// VSUBPD from the row, so each lane sees the MULSD and SUBSD of the
// scalar loop, rounded the same (no FMA). Row indices are not checked
// against len(t); see solveTileL.
//
//go:noescape
func tileAxpyAVX2(t []float64, ind []int, val []float64, x *[Lanes]float64)

// tileDivAVX2 is tileDiv with the row in two YMM registers: one
// broadcast of d and two VDIVPD, each lane the DIVSD of the scalar loop.
//
//go:noescape
func tileDivAVX2(x *[Lanes]float64, d float64)
