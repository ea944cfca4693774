package kernels

// Plain-loop oracles: the column-at-a-time, skip-each-zero loops the
// engines ran before the kernels were register-blocked. They are the
// reference side of the package's bit-exactness contract and exist only
// for the golden tests; nothing in the binary calls them.

func matMulScalar(p, a, b []float64, m, n, k int) {
	for j := 0; j < n; j++ {
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
			for i := range pj {
				pj[i] += at[i] * bv
			}
		}
	}
}

func trsmUpperRightScalar(b []float64, nr, nc int, d []float64, ldd int) {
	for k := 0; k < nc; k++ {
		// b(:,k) = (b(:,k) - Σ_{m<k} b(:,m)·U(m,k)) / U(k,k)
		colK := b[k*nr : (k+1)*nr]
		for m := 0; m < k; m++ {
			umk := d[k*ldd+m]
			if umk == 0 {
				continue
			}
			colM := b[m*nr : (m+1)*nr]
			for i := range colK {
				colK[i] -= colM[i] * umk
			}
		}
		ukk := d[k*ldd+k]
		for i := range colK {
			colK[i] /= ukk
		}
	}
}

func trsmLowerUnitLeftScalar(b []float64, nr, nc int, d []float64, ldd int) {
	for c := 0; c < nc; c++ {
		col := b[c*nr : (c+1)*nr]
		for k := 0; k < nr; k++ {
			xk := col[k]
			if xk == 0 {
				continue
			}
			// col[i] -= L(i,k)·col[k] for i > k.
			for i := k + 1; i < nr; i++ {
				col[i] -= d[k*ldd+i] * xk
			}
		}
	}
}

func rank1TrailingScalar(v []float64, n, k int) {
	for j := k + 1; j < n; j++ {
		lkj := v[j*n+k] // U(k,j)
		if lkj == 0 {
			continue
		}
		for i := k + 1; i < n; i++ {
			v[j*n+i] -= v[k*n+i] * lkj
		}
	}
}

func spAxpyScalar(w []float64, ind []int, val []float64, alpha float64) {
	for q, i := range ind {
		w[i] -= val[q] * alpha
	}
}

// The fused column kernels against column-at-a-time plain loops: the
// bodies apply every column (their callers own the zero test), the
// grouped entry point skips a zero multiplier as the engine's loop does.

func spAxpy4Scalar(w []float64, ind []int, v0, v1, v2, v3 []float64, u0, u1, u2, u3 float64) {
	spAxpyScalar(w, ind, v0, u0)
	spAxpyScalar(w, ind, v1, u1)
	spAxpyScalar(w, ind, v2, u2)
	spAxpyScalar(w, ind, v3, u3)
}

func spAxpy2Scalar(w []float64, ind []int, v0, v1 []float64, u0, u1 float64) {
	spAxpyScalar(w, ind, v0, u0)
	spAxpyScalar(w, ind, v1, u1)
}

// spTriColsScalar is the diagonal-block part of the column-by-column
// loop: read the multiplier, skip a zero, apply the column's block rows.
func spTriColsScalar(w, val []float64, start []int, u []float64) {
	for c := range u {
		u[c] = w[c]
		if u[c] == 0 {
			continue
		}
		for r := c + 1; r < len(u); r++ {
			w[r] -= val[start[c]+r-c-1] * u[c]
		}
	}
}

func spAxpyColsScalar(w []float64, ind []int, val []float64, end []int, u []float64) {
	for c, uc := range u {
		if uc == 0 {
			continue
		}
		spAxpyScalar(w, ind, val[end[c]-len(ind):end[c]], uc)
	}
}

func spDotSubScalar(s float64, ind []int, val []float64, x []float64) float64 {
	for q, i := range ind {
		s -= val[q] * x[i]
	}
	return s
}

func solveSparseLMultiScalar(x []float64, n, nrhs int, ptr, ind []int, val []float64) {
	for r := 0; r < nrhs; r++ {
		xr := x[r*n : (r+1)*n]
		for j := 0; j < n; j++ {
			xj := xr[j]
			if xj == 0 {
				continue
			}
			for q := ptr[j]; q < ptr[j+1]; q++ {
				xr[ind[q]] -= val[q] * xj
			}
		}
	}
}

func solveSparseUMultiScalar(x []float64, n, nrhs int, ptr, ind []int, val []float64) {
	for r := 0; r < nrhs; r++ {
		xr := x[r*n : (r+1)*n]
		for j := n - 1; j >= 0; j-- {
			lo, hi := ptr[j], ptr[j+1]-1
			xj := xr[j] / val[hi]
			xr[j] = xj
			if xj == 0 {
				continue
			}
			for q := lo; q < hi; q++ {
				xr[ind[q]] -= val[q] * xj
			}
		}
	}
}
