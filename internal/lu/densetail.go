package lu

import (
	"fmt"
	"math"

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
	n := sym.N
	if a.Rows != n || a.Cols != n {
		return nil, 0, fmt.Errorf("lu: matrix is %dx%d, symbolic structure is for n=%d", a.Rows, a.Cols, n)
	}
	tail := denseTailStart(sym, tailDensity)
	thresh := TinyPivotThreshold(a.Norm1(), opts.Threshold)
	f := &Factors{
		Sym:     sym,
		LVal:    make([]float64, sym.NnzL()),
		UVal:    make([]float64, sym.NnzU()),
		ColAMax: make([]float64, n),
	}
	w := make([]float64, n)

	// Phase 1: sparse left-looking for the head columns (same kernel as
	// Factorize, bounded to j < tail).
	for j := 0; j < tail; j++ {
		cmax := scatterColumn(a, j, w)
		f.ColAMax[j] = cmax
		for p := sym.UPtr[j]; p < sym.UPtr[j+1]-1; p++ {
			k := sym.UInd[p]
			ukj := w[k]
			f.UVal[p] = ukj
			if ukj == 0 {
				continue
			}
			for q := sym.LPtr[k]; q < sym.LPtr[k+1]; q++ {
				w[sym.LInd[q]] -= f.LVal[q] * ukj
			}
		}
		piv, err := f.pick(j, w[j], cmax, thresh, opts)
		if err != nil {
			return nil, 0, err
		}
		f.UVal[sym.UPtr[j+1]-1] = piv
		for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
			f.LVal[q] = w[sym.LInd[q]] / piv
		}
		clearColumn(sym, j, w)
	}
	if tail >= n {
		return f, n, nil
	}

	// Phase 2: form the dense trailing Schur complement
	// S = A(t:,t:) − L(t:,0:t)·U(0:t,t:).
	m := n - tail
	s := make([]float64, m*m) // row-major
	for j := tail; j < n; j++ {
		cmax := 0.0
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if v := math.Abs(a.Val[k]); v > cmax {
				cmax = v
			}
			if i := a.RowInd[k]; i >= tail {
				s[(i-tail)*m+(j-tail)] = a.Val[k]
			}
		}
		f.ColAMax[j] = cmax
		// Head-column contributions to column j come through U(k,j), k <
		// tail, which themselves need the left-looking pass over column j
		// restricted to head pivots.
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if i := a.RowInd[k]; i < tail {
				w[i] = a.Val[k]
			}
		}
		for p := sym.UPtr[j]; p < sym.UPtr[j+1]-1; p++ {
			k := sym.UInd[p]
			if k >= tail {
				break // only head pivots participate in this phase
			}
			ukj := w[k]
			f.UVal[p] = ukj
			if ukj == 0 {
				continue
			}
			for q := sym.LPtr[k]; q < sym.LPtr[k+1]; q++ {
				i := sym.LInd[q]
				if i < tail {
					w[i] -= f.LVal[q] * ukj
				} else {
					s[(i-tail)*m+(j-tail)] -= f.LVal[q] * ukj
				}
			}
		}
		for p := sym.UPtr[j]; p < sym.UPtr[j+1]-1; p++ {
			if k := sym.UInd[p]; k < tail {
				w[k] = 0
			}
		}
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

// pick applies the tiny-pivot policy shared by both phases.
func (f *Factors) pick(col int, piv, cmax, thresh float64, opts Options) (float64, error) {
	if math.Abs(piv) >= thresh {
		return piv, nil
	}
	if !opts.ReplaceTinyPivot {
		if piv == 0 {
			return 0, &ZeroPivotError{Col: col, Threshold: thresh}
		}
		return piv, nil
	}
	repl := thresh
	if opts.Aggressive && cmax > thresh {
		repl = cmax
	}
	newPiv := math.Copysign(repl, piv)
	if piv == 0 {
		newPiv = repl
	}
	f.PivotMods = append(f.PivotMods, PivotMod{Col: col, Old: piv, New: newPiv})
	f.TinyPivots++
	return newPiv, nil
}

func scatterColumn(a *sparse.CSC, j int, w []float64) float64 {
	cmax := 0.0
	for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
		w[a.RowInd[k]] = a.Val[k]
		if v := math.Abs(a.Val[k]); v > cmax {
			cmax = v
		}
	}
	return cmax
}

func clearColumn(sym *symbolic.Result, j int, w []float64) {
	for _, i := range sym.UColRows(j) {
		w[i] = 0
	}
	for q := sym.LPtr[j]; q < sym.LPtr[j+1]; q++ {
		w[sym.LInd[q]] = 0
	}
}

// denseTailStart finds the first column t such that the trailing fill
// F(t:, t:) has density at least the threshold; returns n when no
// trailing block qualifies (or the threshold is >= 1).
func denseTailStart(sym *symbolic.Result, density float64) int {
	n := sym.N
	if density >= 1 || n == 0 {
		return n
	}
	// Exact suffix sweep: trailing(t) counts fill entries with both
	// indices >= t. Adding "line t" to the block contributes the whole L
	// column t (rows > t), the diagonal, and the strictly-upper entries of
	// U row t (columns > t) — everything else of line t lies outside.
	best := n
	var trailing int64
	for t := n - 1; t >= 0; t-- {
		trailing += int64(sym.LPtr[t+1]-sym.LPtr[t]) + 1 + int64(uRowSuffix(sym, t))
		size := int64(n - t)
		if size >= 4 && trailing >= int64(float64(size*size)*density) {
			best = t
		}
	}
	return best
}

// uRowCounts caches, per row, the number of strictly-upper U entries; all
// such entries have column > row, so they are inside any trailing block
// that contains the row.
func uRowSuffix(sym *symbolic.Result, row int) int {
	if sym.URowCount == nil {
		counts := make([]int, sym.N)
		for j := 0; j < sym.N; j++ {
			for p := sym.UPtr[j]; p < sym.UPtr[j+1]-1; p++ {
				counts[sym.UInd[p]]++
			}
		}
		sym.URowCount = counts
	}
	return sym.URowCount[row]
}
