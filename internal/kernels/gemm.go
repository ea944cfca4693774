package kernels

// MatMul computes the dense column-major product p = a·b, where a is
// m×k, b is k×n and p is m×n, all packed (leading dimension equals the
// row count). This is the Schur-update product of RankBUpdateInto: a is
// the L panel, b the (packed) U panel, p the accumulator that is then
// scatter-subtracted into the target block.
//
// The kernel is a 4-column fused axpy with the row sweep unrolled by 4.
// Each L column strip is loaded once and applied to four U columns (4×
// less a traffic than a column-at-a-time loop), the four product
// columns stay resident in L1, and the unrolled body gives the
// scheduler sixteen independent multiply-adds per iteration. A plain
// 4×4 accumulator tile loses here: sixteen live accumulators plus
// operands exceed the sixteen FP registers of amd64, so the compiler
// spills the tile to the stack on every k step, and the tile's a loads
// are stride-m besides.
//
// Per output element the accumulation order is ascending t with one
// multiply-add per term, identical to the column-at-a-time oracle. A t
// whose four b entries are all zero is skipped exactly like the
// oracle's per-column skip; a zero entry alongside nonzero ones
// contributes an exact ±0 term, which cannot change a partial sum (sums
// never reach -0: +0 + ±0 rounds to +0, so zero terms keep the
// accumulator at +0, matching the skip).
//
//gesp:hotpath
func MatMul(p, a, b []float64, m, n, k int) {
	if m == 0 || n == 0 {
		return
	}
	j := 0
	for ; j+4 <= n; j += 4 {
		b0 := b[(j+0)*k : (j+1)*k]
		b1 := b[(j+1)*k : (j+2)*k]
		b2 := b[(j+2)*k : (j+3)*k]
		b3 := b[(j+3)*k : (j+4)*k]
		p0 := p[(j+0)*m : (j+1)*m : (j+1)*m]
		p1 := p[(j+1)*m : (j+2)*m : (j+2)*m]
		p2 := p[(j+2)*m : (j+3)*m : (j+3)*m]
		p3 := p[(j+3)*m : (j+4)*m : (j+4)*m]
		for i := range p0 {
			p0[i] = 0
			p1[i] = 0
			p2[i] = 0
			p3[i] = 0
		}
		for t := 0; t < k; t++ {
			v0, v1, v2, v3 := b0[t], b1[t], b2[t], b3[t]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			at := a[t*m : (t+1)*m : (t+1)*m]
			i := 0
			for ; i+4 <= m; i += 4 {
				a0, a1, a2, a3 := at[i], at[i+1], at[i+2], at[i+3]
				p0[i] += a0 * v0
				p0[i+1] += a1 * v0
				p0[i+2] += a2 * v0
				p0[i+3] += a3 * v0
				p1[i] += a0 * v1
				p1[i+1] += a1 * v1
				p1[i+2] += a2 * v1
				p1[i+3] += a3 * v1
				p2[i] += a0 * v2
				p2[i+1] += a1 * v2
				p2[i+2] += a2 * v2
				p2[i+3] += a3 * v2
				p3[i] += a0 * v3
				p3[i+1] += a1 * v3
				p3[i+2] += a2 * v3
				p3[i+3] += a3 * v3
			}
			for ; i < m; i++ {
				av := at[i]
				p0[i] += av * v0
				p1[i] += av * v1
				p2[i] += av * v2
				p3[i] += av * v3
			}
		}
	}
	for ; j < n; j++ {
		bj := b[j*k : (j+1)*k]
		pj := p[j*m : (j+1)*m]
		for i := range pj {
			pj[i] = 0
		}
		for t := 0; t < k; t++ {
			bv := bj[t]
			if bv == 0 {
				continue
			}
			at := a[t*m : (t+1)*m]
			for i, av := range at {
				pj[i] += av * bv
			}
		}
	}
}
