package kernels

// Panel-solve and dense-elimination kernels of the supernodal engines.
// The diagonal operand d is a factored diagonal block (unit-lower L and
// upper U packed together) of leading dimension ldd; the panel b is
// packed column-major nr×nc. As everywhere in this package, each kernel
// preserves the per-element operation sequence of its test oracle.

// TrsmUpperRight overwrites b with b·U⁻¹ where the upper triangle of d
// (order nc, leading dimension ldd) holds U: the L-panel solve
// L(I,K) = A(I,K)·U(K,K)⁻¹. Four prior columns are applied per sweep of
// the target column, keeping the running element in a register across
// the four multiply-subtracts (ascending-m operation order per element,
// a quarter of the loads and stores of a column-at-a-time loop).
//
//gesp:hotpath
func TrsmUpperRight(b []float64, nr, nc int, d []float64, ldd int) {
	if nr == 0 || nc == 0 {
		return
	}
	for k := 0; k < nc; k++ {
		colK := b[k*nr : (k+1)*nr]
		dk := d[k*ldd:]
		m := 0
		for ; m+4 <= k; m += 4 {
			u0, u1, u2, u3 := dk[m], dk[m+1], dk[m+2], dk[m+3]
			if u0 == 0 && u1 == 0 && u2 == 0 && u3 == 0 {
				continue
			}
			c0 := b[(m+0)*nr : (m+1)*nr]
			c1 := b[(m+1)*nr : (m+2)*nr]
			c2 := b[(m+2)*nr : (m+3)*nr]
			c3 := b[(m+3)*nr : (m+4)*nr]
			for i := range colK {
				t := colK[i]
				t -= c0[i] * u0
				t -= c1[i] * u1
				t -= c2[i] * u2
				t -= c3[i] * u3
				colK[i] = t
			}
		}
		for ; m < k; m++ {
			umk := dk[m]
			if umk == 0 {
				continue
			}
			colM := b[m*nr : (m+1)*nr]
			for i := range colK {
				colK[i] -= colM[i] * umk
			}
		}
		ukk := dk[k]
		for i := range colK {
			colK[i] /= ukk
		}
	}
}

// TrsmLowerUnitLeft overwrites b with L⁻¹·b where the unit-lower
// triangle of d (order nr, leading dimension ldd) holds L: the U-panel
// solve U(K,J) = L(K,K)⁻¹·A(K,J). Four right-hand-side columns are
// solved together, loading each L column of the diagonal block once for
// all four. Columns are independent, so fusing them preserves every
// element's operation sequence; a panel of four all-zero multipliers is
// skipped exactly as a column-at-a-time loop would skip each.
//
//gesp:hotpath
func TrsmLowerUnitLeft(b []float64, nr, nc int, d []float64, ldd int) {
	if nr == 0 || nc == 0 {
		return
	}
	c := 0
	for ; c+4 <= nc; c += 4 {
		c0 := b[(c+0)*nr : (c+1)*nr]
		c1 := b[(c+1)*nr : (c+2)*nr]
		c2 := b[(c+2)*nr : (c+3)*nr]
		c3 := b[(c+3)*nr : (c+4)*nr]
		for k := 0; k < nr; k++ {
			x0, x1, x2, x3 := c0[k], c1[k], c2[k], c3[k]
			if x0 == 0 && x1 == 0 && x2 == 0 && x3 == 0 {
				continue
			}
			dk := d[k*ldd:]
			for i := k + 1; i < nr; i++ {
				dv := dk[i]
				c0[i] -= dv * x0
				c1[i] -= dv * x1
				c2[i] -= dv * x2
				c3[i] -= dv * x3
			}
		}
	}
	for ; c < nc; c++ {
		col := b[c*nr : (c+1)*nr]
		for k := 0; k < nr; k++ {
			xk := col[k]
			if xk == 0 {
				continue
			}
			dk := d[k*ldd:]
			for i := k + 1; i < nr; i++ {
				col[i] -= dk[i] * xk
			}
		}
	}
}

// Rank1Trailing applies elimination step k's rank-1 update to the
// trailing submatrix of the dense diagonal block v (order n, packed):
// v(i,j) -= L(i,k)·U(k,j) for i,j > k, where column k already holds the
// scaled multipliers. The diagonal-block factorization (FactorDiag)
// calls it once per pivot. Four trailing columns are updated per sweep,
// loading the multiplier column once for all four; trailing columns are
// independent, so each element's single multiply-subtract is unchanged.
//
//gesp:hotpath
func Rank1Trailing(v []float64, n, k int) {
	lcol := v[k*n : (k+1)*n]
	j := k + 1
	for ; j+4 <= n; j += 4 {
		u0 := v[(j+0)*n+k]
		u1 := v[(j+1)*n+k]
		u2 := v[(j+2)*n+k]
		u3 := v[(j+3)*n+k]
		if u0 == 0 && u1 == 0 && u2 == 0 && u3 == 0 {
			continue
		}
		t0 := v[(j+0)*n : (j+1)*n]
		t1 := v[(j+1)*n : (j+2)*n]
		t2 := v[(j+2)*n : (j+3)*n]
		t3 := v[(j+3)*n : (j+4)*n]
		for i := k + 1; i < n; i++ {
			lv := lcol[i]
			t0[i] -= lv * u0
			t1[i] -= lv * u1
			t2[i] -= lv * u2
			t3[i] -= lv * u3
		}
	}
	for ; j < n; j++ {
		lkj := v[j*n+k]
		if lkj == 0 {
			continue
		}
		tj := v[j*n : (j+1)*n]
		for i := k + 1; i < n; i++ {
			tj[i] -= lcol[i] * lkj
		}
	}
}
