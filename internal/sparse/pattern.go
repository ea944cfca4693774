package sparse

import "slices"

// Pattern is a symmetric sparsity structure given as an adjacency list in
// compressed form: the neighbours of vertex j are Ind[Ptr[j]:Ptr[j+1]],
// sorted ascending, never containing j itself.
type Pattern struct {
	N   int
	Ptr []int
	Ind []int
}

// Nnz reports the number of stored (directed) adjacency entries.
func (p *Pattern) Nnz() int { return p.Ptr[p.N] }

// PatternAPlusAT returns the adjacency structure of A + Aᵀ with the
// diagonal removed, used for fill-reducing ordering of nearly symmetric
// matrices.
func PatternAPlusAT(a *CSC) *Pattern {
	n := a.Cols
	at := a.Transpose()
	ptr := make([]int, n+1)
	// First pass: count the merged degree of each column.
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	count := func(j int, dst []int) int {
		c := 0
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowInd[k]
			if i != j && mark[i] != j {
				mark[i] = j
				if dst != nil {
					dst[c] = i
				}
				c++
			}
		}
		for k := at.ColPtr[j]; k < at.ColPtr[j+1]; k++ {
			i := at.RowInd[k]
			if i != j && mark[i] != j {
				mark[i] = j
				if dst != nil {
					dst[c] = i
				}
				c++
			}
		}
		return c
	}
	for j := 0; j < n; j++ {
		ptr[j+1] = ptr[j] + count(j, nil)
	}
	ind := make([]int, ptr[n])
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		c := count(j, ind[ptr[j]:])
		sortInts(ind[ptr[j] : ptr[j]+c])
	}
	return &Pattern{N: n, Ptr: ptr, Ind: ind}
}

// PatternATA returns the adjacency structure of AᵀA with the diagonal
// removed: columns j and k are adjacent iff they share a nonzero row in A.
// This is the graph GESP orders with minimum degree to bound fill for any
// row permutation.
func PatternATA(a *CSC) *Pattern {
	n := a.Cols
	at := a.Transpose() // rows of A as columns
	ptr := make([]int, n+1)
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	// Column j of AᵀA has nonzeros at all columns k sharing any row i with
	// column j of A.
	count := func(j int, dst []int) int {
		c := 0
		for k := a.ColPtr[j]; k < a.ColPtr[j+1]; k++ {
			i := a.RowInd[k]
			for kk := at.ColPtr[i]; kk < at.ColPtr[i+1]; kk++ {
				col := at.RowInd[kk]
				if col != j && mark[col] != j {
					mark[col] = j
					if dst != nil {
						dst[c] = col
					}
					c++
				}
			}
		}
		return c
	}
	for j := 0; j < n; j++ {
		ptr[j+1] = ptr[j] + count(j, nil)
	}
	ind := make([]int, ptr[n])
	for i := range mark {
		mark[i] = -1
	}
	for j := 0; j < n; j++ {
		c := count(j, ind[ptr[j]:])
		sortInts(ind[ptr[j] : ptr[j]+c])
	}
	return &Pattern{N: n, Ptr: ptr, Ind: ind}
}

// sortInts sorts one adjacency list. Stencil and circuit rows have a
// handful of entries, where insertion sort wins; the dense rows of the
// economics and migration matrices have thousands, where it is quadratic.
func sortInts(s []int) {
	if len(s) > 16 {
		slices.Sort(s)
		return
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// Symmetry holds the structural and numeric symmetry fractions reported in
// the paper's Table 2.
type Symmetry struct {
	// Str is the fraction of off-diagonal nonzeros matched by a nonzero in
	// the symmetric location ("StrSym").
	Str float64
	// Num is the fraction of off-diagonal nonzeros matched by an equal
	// value in the symmetric location ("NumSym").
	Num float64
}

// SymmetryOf computes structural and numeric symmetry fractions of a
// square matrix. A matrix with no off-diagonal entries reports 1 for both.
func SymmetryOf(a *CSC) Symmetry {
	at := a.Transpose()
	total, strMatch, numMatch := 0, 0, 0
	for j := 0; j < a.Cols; j++ {
		ka, kt := a.ColPtr[j], at.ColPtr[j]
		ea, et := a.ColPtr[j+1], at.ColPtr[j+1]
		for ka < ea {
			i := a.RowInd[ka]
			if i == j {
				ka++
				continue
			}
			total++
			for kt < et && at.RowInd[kt] < i {
				kt++
			}
			if kt < et && at.RowInd[kt] == i {
				strMatch++
				// Numeric symmetry counts entries with A(i,j) exactly
				// equal to A(j,i), the Harwell-Boeing statistic.
				//gesp:floateq
				if at.Val[kt] == a.Val[ka] {
					numMatch++
				}
			}
			ka++
		}
	}
	if total == 0 {
		return Symmetry{Str: 1, Num: 1}
	}
	return Symmetry{
		Str: float64(strMatch) / float64(total),
		Num: float64(numMatch) / float64(total),
	}
}
