package sparse

import (
	"fmt"
	"math"
)

// MatVec computes y = A*x. y must have length a.Rows and x length a.Cols.
func (a *CSC) MatVec(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			y[a.RowInd[k]] += a.Val[k] * xj
		}
	}
}

// MatTVec computes y = Aᵀ*x. y must have length a.Cols and x length a.Rows.
func (a *CSC) MatTVec(y, x []float64) {
	for j := 0; j < a.Cols; j++ {
		s := 0.0
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			s += a.Val[k] * x[a.RowInd[k]]
		}
		y[j] = s
	}
}

// AbsMatVec computes y = |A|*x for nonnegative x, the denominator of the
// componentwise backward error. refine.ResidualBerr fuses this sweep with
// the residual's and is tested against it row for row.
func (a *CSC) AbsMatVec(y, x []float64) {
	for i := range y {
		y[i] = 0
	}
	for j := 0; j < a.Cols; j++ {
		xj := x[j]
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			y[a.RowInd[k]] += math.Abs(a.Val[k]) * xj
		}
	}
}

// Residual computes r = b - A*x.
func (a *CSC) Residual(r, b, x []float64) {
	a.MatVec(r, x)
	for i := range r {
		r[i] = b[i] - r[i]
	}
}

// Norm1 returns the matrix 1-norm (maximum absolute column sum).
func (a *CSC) Norm1() float64 {
	best := 0.0
	for j := 0; j < a.Cols; j++ {
		s := 0.0
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			s += math.Abs(a.Val[k])
		}
		if s > best {
			best = s
		}
	}
	return best
}

// NormInf returns the matrix infinity-norm (maximum absolute row sum).
func (a *CSC) NormInf() float64 {
	rowSum := make([]float64, a.Rows)
	for k, i := range a.RowInd {
		rowSum[i] += math.Abs(a.Val[k])
	}
	best := 0.0
	for _, s := range rowSum {
		if s > best {
			best = s
		}
	}
	return best
}

// MaxAbs returns the largest entry magnitude.
func (a *CSC) MaxAbs() float64 {
	best := 0.0
	for _, v := range a.Val {
		if av := math.Abs(v); av > best {
			best = av
		}
	}
	return best
}

// Diagonal returns the main diagonal as a dense vector (zeros where no
// entry is stored).
func (a *CSC) Diagonal() []float64 {
	n := a.Cols
	if a.Rows < n {
		n = a.Rows
	}
	d := make([]float64, n)
	for j := 0; j < n; j++ {
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			if a.RowInd[k] == j {
				d[j] = a.Val[k]
				break
			}
		}
	}
	return d
}

// ZeroDiagonals counts the structurally or numerically zero entries on the
// main diagonal.
func (a *CSC) ZeroDiagonals() int {
	count := 0
	for _, v := range a.Diagonal() {
		if v == 0 {
			count++
		}
	}
	return count
}

// ScaleRowsCols overwrites A with Dr*A*Dc for diagonal scalings given as
// dense vectors. Either may be nil, meaning identity.
func (a *CSC) ScaleRowsCols(dr, dc []float64) {
	for j := 0; j < a.Cols; j++ {
		cj := 1.0
		if dc != nil {
			cj = dc[j]
		}
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			ri := 1.0
			if dr != nil {
				ri = dr[a.RowInd[k]]
			}
			a.Val[k] *= ri * cj
		}
	}
}

// PermuteRows returns Pr*A where row i of A becomes row perm[i] of the
// result — i.e. perm maps old row index to new row index.
func (a *CSC) PermuteRows(perm []int) *CSC {
	if err := CheckPerm(perm, a.Rows); err != nil {
		panic(fmt.Sprintf("sparse: PermuteRows: %v", err))
	}
	b := &CSC{Rows: a.Rows, Cols: a.Cols, ColPtr: append([]int(nil), a.ColPtr...)}
	b.RowInd = make([]int, a.Nnz())
	b.Val = make([]float64, a.Nnz())
	for j := 0; j < a.Cols; j++ {
		lo, hi := a.ColPtr[j], a.ColPtr[j+1]
		for k := lo; k < hi; k++ {
			b.RowInd[k] = perm[a.RowInd[k]]
			b.Val[k] = a.Val[k]
		}
		sortByRow(b.RowInd[lo:hi], b.Val[lo:hi])
	}
	return b
}

// PermuteMap returns B = Pr·A·Pcᵀ, where row i of A becomes row
// rowPerm[i] and column j becomes column colPerm[j] — the matrix
// a.PermuteRows(rowPerm).PermuteCols(colPerm) builds, in one pass — and
// the map from A's storage to B's: entry k of A is entry dst[k] of B.
// Any matrix with A's pattern permutes to B's pattern under the same dst,
// so the map turns a later permutation into one pass over its values.
// nnz(A) must fit in an int32.
func (a *CSC) PermuteMap(rowPerm, colPerm []int) (b *CSC, dst []int32) {
	if err := CheckPerm(rowPerm, a.Rows); err != nil {
		panic(fmt.Sprintf("sparse: PermuteMap: %v", err))
	}
	if err := CheckPerm(colPerm, a.Cols); err != nil {
		panic(fmt.Sprintf("sparse: PermuteMap: %v", err))
	}
	nnz := a.Nnz()
	if nnz > math.MaxInt32 {
		panic(fmt.Sprintf("sparse: PermuteMap: %d entries overflow an int32 map", nnz))
	}
	b = &CSC{Rows: a.Rows, Cols: a.Cols, ColPtr: make([]int, a.Cols+1), RowInd: make([]int, nnz), Val: make([]float64, nnz)}
	src := make([]int32, nnz) // entry p of B is entry src[p] of A
	inv := InversePerm(colPerm)
	p := 0
	for jn := 0; jn < a.Cols; jn++ {
		lo, jo := p, inv[jn]
		for k := a.ColPtr[jo]; k < a.ColPtr[jo+1]; k++ {
			b.RowInd[p] = rowPerm[a.RowInd[k]]
			src[p] = int32(k)
			p++
		}
		sortByRow(b.RowInd[lo:p], src[lo:p])
		b.ColPtr[jn+1] = p
	}
	dst = make([]int32, nnz)
	for p, k := range src {
		b.Val[p] = a.Val[k]
		dst[k] = int32(p)
	}
	return b, dst
}

// PermuteCols returns A*Pcᵀ where column j of A becomes column perm[j] of
// the result — i.e. perm maps old column index to new column index.
func (a *CSC) PermuteCols(perm []int) *CSC {
	if err := CheckPerm(perm, a.Cols); err != nil {
		panic(fmt.Sprintf("sparse: PermuteCols: %v", err))
	}
	b := &CSC{Rows: a.Rows, Cols: a.Cols, ColPtr: make([]int, a.Cols+1)}
	b.RowInd = make([]int, a.Nnz())
	b.Val = make([]float64, a.Nnz())
	inv := InversePerm(perm)
	p := 0
	for jn := 0; jn < a.Cols; jn++ {
		jo := inv[jn] // old column landing at new position jn
		for k := a.ColPtr[jo]; k < a.ColPtr[jo+1]; k++ {
			b.RowInd[p] = a.RowInd[k]
			b.Val[p] = a.Val[k]
			p++
		}
		b.ColPtr[jn+1] = p
	}
	return b
}

// PermuteSym returns P*A*Pᵀ for a square matrix, applying perm to both rows
// and columns (old index -> new index). This is the operation GESP uses to
// apply the fill-reducing ordering while keeping the matched diagonal.
func (a *CSC) PermuteSym(perm []int) *CSC {
	if a.Rows != a.Cols {
		panic("sparse: PermuteSym on non-square matrix")
	}
	return a.PermuteRows(perm).PermuteCols(perm)
}

// sortByRow sorts a column's row indices ascending, carrying vv along.
// Insertion sort: permuted columns are mostly short; avoids the
// interface-dispatch overhead of sort.Sort dominating profiles.
func sortByRow[T any](ri []int, vv []T) {
	for i := 1; i < len(ri); i++ {
		r, v := ri[i], vv[i]
		j := i - 1
		for j >= 0 && ri[j] > r {
			ri[j+1] = ri[j]
			vv[j+1] = vv[j]
			j--
		}
		ri[j+1] = r
		vv[j+1] = v
	}
}

// VecNormInf returns max_i |x[i]|.
func VecNormInf(x []float64) float64 {
	best := 0.0
	for _, v := range x {
		if av := math.Abs(v); av > best {
			best = av
		}
	}
	return best
}

// VecNorm1 returns sum_i |x[i]|.
func VecNorm1(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// RelErrInf returns ||x - y||_inf / ||y||_inf, the error metric of the
// paper's Figure 4 (with y the true solution).
func RelErrInf(x, y []float64) float64 {
	num, den := 0.0, 0.0
	for i := range x {
		if d := math.Abs(x[i] - y[i]); d > num {
			num = d
		}
		if a := math.Abs(y[i]); a > den {
			den = a
		}
	}
	if den == 0 {
		return num
	}
	return num / den
}
