//go:build amd64

package kernels

// spAxpyRunAVX2 is spAxpyRun with sixteen rows of w held in four YMM
// registers: per turn one gather of the rows, then for each column one
// broadcast of u[k], four VMULPD of the column's values by it and four
// VSUBPD from the rows, then one scatter. Each row sees the MULSD and
// SUBSD of the scalar loop in ascending column order, rounded the same
// (no FMA), with the same operand order, so NaN payloads come out as the
// Go body's do. An eight-row, a four-row and a one-row step take the
// tail. Indices are not checked; see spAxpyCols.
//
//go:noescape
func spAxpyRunAVX2(w []float64, ind []int, val []float64, end []int, u []float64)

// axpyAVX2 is axpy four elements per YMM register: y[t] -= x[t]·a with
// separate VMULPD and VSUBPD, a one-element step for the tail.
//
//go:noescape
func axpyAVX2(y, x []float64, a float64)
