//go:build amd64

package kernels

// residualRunAVX2 is residualColumn over the columns j, j+1, … of A with
// each row of r and of d held in two YMM registers: per entry one
// broadcast of val[q] and one of |val[q]|, two VMULPD and two VADDPD for
// r, two of each for d, in the scalar loop's operand order (the product
// first, v before x; no FMA). It stops at the first column with a zero
// lane, which it leaves unapplied, and returns its index (n when there
// is none). Row indices are not checked against len(r); see
// ResidualTile.
//
//go:noescape
func residualRunAVX2(r, d []float64, ptr, ind []int, val, x []float64, j int) int

// residualBerrAVX2 is residualBerr on every lane and without comp, four
// lanes per YMM register and branch-free: VSUBPD for b − r, compare
// masks for NaN, +Inf and a zero denominator, VDIVPD for the ratio,
// masked to the rows with a positive denominator, and VMAXPD into the
// lane's maximum.
//
//go:noescape
func residualBerrAVX2(r, d, b []float64, berr *[Lanes]float64) (nan, inf uint8)
