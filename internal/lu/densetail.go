package lu

import (
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// FactorizeDenseTail implements the paper's future-work proposal of
// "switching to a dense factorization when the submatrix at the lower
// right corner becomes sufficiently dense": columns before the switch
// point factor with the sparse left-looking kernel, the trailing Schur
// complement is formed densely and eliminated with a dense kernel.
//
// Positions outside the static fill pattern stay exactly zero through
// elimination (the pattern is closed under no-pivot elimination), so the
// dense tail computes the same factors as the sparse code up to
// round-off reordering. tailDensity is the trailing-fill density
// threshold triggering the switch (the paper suggests "sufficiently
// dense"; 0.5–0.8 are sensible). It returns the factors and the first
// column handled densely (n if the switch never triggered).
func FactorizeDenseTail(a *sparse.CSC, sym *symbolic.Result, opts Options, tailDensity float64) (*Factors, int, error) {
	f, w, thresh, err := newFactors(a, sym, opts)
	if err != nil {
		return nil, 0, err
	}
	n := sym.N
	tail := denseTailStart(sym, tailDensity)

	// Phase 1: the head columns, by Factorize's own column step.
	for j := 0; j < tail; j++ {
		if err := f.step(a, j, w, thresh, opts); err != nil {
			return nil, 0, err
		}
	}
	if tail >= n {
		return f, n, nil
	}

	// Phase 2: form the dense trailing Schur complement
	// S = A(t:,t:) − L(t:,0:t)·U(0:t,t:): the same step's update, stopped
	// at the head pivots, leaves U(0:t,j) in place and column j of S in
	// the accumulator, along the static pattern of the column.
	m := n - tail
	s := make([]float64, m*m) // row-major
	for j := tail; j < n; j++ {
		f.ColAMax[j] = scatterColumn(a, j, w)
		f.update(j, tail, w)
		for _, i := range sym.UColRows(j) {
			if i >= tail {
				s[(i-tail)*m+(j-tail)] = w[i]
			}
		}
		for _, i := range sym.LColRows(j) {
			s[(i-tail)*m+(j-tail)] = w[i]
		}
		clearColumn(sym, j, w)
	}

	// Phase 3: dense no-pivot elimination of S with tiny-pivot handling.
	for k := 0; k < m; k++ {
		col := tail + k
		piv, err := f.pick(col, s[k*m+k], f.ColAMax[col], thresh, opts)
		if err != nil {
			return nil, 0, err
		}
		s[k*m+k] = piv
		for i := k + 1; i < m; i++ {
			s[i*m+k] /= piv
		}
		for i := k + 1; i < m; i++ {
			lik := s[i*m+k]
			if lik == 0 {
				continue
			}
			row := s[i*m:]
			prow := s[k*m:]
			for j := k + 1; j < m; j++ {
				row[j] -= lik * prow[j]
			}
		}
	}
	// Scatter the dense factors back into the static pattern.
	for j := tail; j < n; j++ {
		jj := j - tail
		for p := sym.UPtr[j]; p < sym.UPtr[j+1]; p++ {
			if k := sym.UInd[p]; k >= tail {
				f.UVal[p] = s[(k-tail)*m+jj]
			}
		}
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			f.LVal[q] = s[(sym.LInd[q]-tail)*m+jj]
		}
	}
	return f, tail, nil
}

// denseTailStart finds the first column t such that the trailing fill
// F(t:, t:) has density at least the threshold; returns n when no
// trailing block qualifies (or the threshold is >= 1).
func denseTailStart(sym *symbolic.Result, density float64) int {
	n := sym.N
	if density >= 1 || n == 0 {
		return n
	}
	// urow[k]: strictly-upper entries of U row k. All have column > k, so
	// they are inside any trailing block that contains the row.
	urow := make([]int, n)
	for j := 0; j < n; j++ {
		for p := sym.UPtr[j]; p < sym.UPtr[j+1]-1; p++ {
			urow[sym.UInd[p]]++
		}
	}
	// Exact suffix sweep: trailing(t) counts fill entries with both
	// indices >= t. Adding "line t" to the block contributes the whole L
	// column t (rows > t), the diagonal, and the strictly-upper entries of
	// U row t (columns > t) — everything else of line t lies outside.
	best := n
	var trailing int64
	for t := n - 1; t >= 0; t-- {
		trailing += int64(sym.LPtr[t+1]-sym.LPtr[t]) + 1 + int64(urow[t])
		size := int64(n - t)
		if size >= 4 && trailing >= int64(float64(size*size)*density) {
			best = t
		}
	}
	return best
}
