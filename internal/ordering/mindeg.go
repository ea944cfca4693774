// Package ordering provides fill-reducing symmetric orderings for step (2)
// of the GESP algorithm: an approximate minimum degree algorithm (where the
// paper cites Liu's MMD), nested dissection, reverse Cuthill–McKee, and the
// natural ordering. GESP applies the resulting permutation to both the
// rows and columns of the matched matrix so the large diagonal from step
// (1) is preserved.
package ordering

import (
	"math"

	"gesp/internal/sparse"
)

// Method selects the fill-reducing heuristic.
type Method int

const (
	// MinDegATA runs minimum degree on the pattern of AᵀA, which bounds
	// the fill under any row interchanges (the paper's choice, "for now";
	// kept for the §2.1 ablation).
	MinDegATA Method = iota
	// MinDegAPlusAT runs minimum degree on A+Aᵀ, the graph GESP
	// eliminates once step (1) has fixed the pivots on the diagonal
	// (core.DefaultOptions has the argument). The default.
	MinDegAPlusAT
	// RCM is reverse Cuthill–McKee on A+Aᵀ, a bandwidth reducer included
	// for ablation benchmarks.
	RCM
	// Natural keeps the identity ordering.
	Natural
	// NDATA is nested dissection on AᵀA (the paper's step (2) mentions
	// nested dissection as an alternative to minimum degree).
	NDATA
	// NDAPlusAT is nested dissection on A+Aᵀ.
	NDAPlusAT
)

var methodNames = [...]string{
	MinDegATA:     "mmd-ata",
	MinDegAPlusAT: "mmd-at+a",
	RCM:           "rcm",
	Natural:       "natural",
	NDATA:         "nd-ata",
	NDAPlusAT:     "nd-at+a",
}

func (m Method) String() string {
	if m < 0 || int(m) >= len(methodNames) {
		return "unknown"
	}
	return methodNames[m]
}

// MethodNames lists the name of every Method, in declaration order.
func MethodNames() []string { return methodNames[:] }

// ParseMethod is the inverse of Method.String.
func ParseMethod(name string) (Method, bool) {
	for m, s := range methodNames {
		if s == name {
			return Method(m), true
		}
	}
	return 0, false
}

// Order computes a fill-reducing permutation (old index -> new index) for
// the square matrix a using the chosen method.
func Order(a *sparse.CSC, m Method) []int {
	switch m {
	case MinDegATA:
		return MinimumDegree(sparse.PatternATA(a))
	case MinDegAPlusAT:
		return MinimumDegree(sparse.PatternAPlusAT(a))
	case RCM:
		return ReverseCuthillMcKee(sparse.PatternAPlusAT(a))
	case NDATA:
		return NestedDissection(sparse.PatternATA(a))
	case NDAPlusAT:
		return NestedDissection(sparse.PatternAPlusAT(a))
	default:
		return sparse.IdentityPerm(a.Cols)
	}
}

// MinimumDegree computes an approximate minimum degree ordering of the
// symmetric pattern (Amestoy, Davis and Duff's AMD) and returns perm with
// perm[old] = new (elimination position). It serves both min-degree
// methods and the nested-dissection leaves.
//
// The elimination graph is held as a quotient graph in one integer
// workspace iw. A live variable i owns iw[pe[i] : pe[i]+length[i]]: first
// the elen[i] elements (eliminated pivots) it is adjacent to, then its
// variable neighbours. An element e owns the list Le of live variables
// its elimination made pairwise adjacent. Lists only shrink, are pruned
// of dead entries whenever they are scanned, and the workspace is
// compacted when a new element no longer fits at its end.
//
// Per pivot k, one pass over the lists of the variables in Lk leaves
// |Le∖Lk| in w[e] for every element e they touch, and a second pass turns
// that into the approximate external degree of each variable i of Lk,
//
//	d(i) = min(n−nel, d_old(i)+|Lk∖i|, |Ai∖i|+|Lk∖i|+Σ_e |Le∖Lk|)
//
// with nel the number of variables eliminated so far, Ai the variable
// neighbours of i and e ranging over its other elements — instead of one
// union walk per neighbour. An element with |Le∖Lk| = 0 is absorbed into
// k (aggressive absorption); a variable left with no neighbour outside Lk
// is eliminated with k (mass elimination); variables of Lk whose pruned
// lists coincide — found by hashing the lists — are merged into one
// supervariable and eliminated together from then on.
// Variables of degree above 10·√n are withheld from the graph and ordered
// last. Ties go to the variable most recently placed in the lowest degree
// list, so equal inputs give equal orderings.
//
// The permutation is the elimination order itself: a pivot is followed by
// the variables merged into or eliminated with it. It is not postordered
// along the assembly tree.
func MinimumDegree(p *sparse.Pattern) []int {
	n := p.N
	perm := make([]int, n)
	if n == 0 {
		return perm
	}
	dense := int(10 * math.Sqrt(float64(n)))

	// Elbow room beyond the pattern: new elements are built at the end of
	// iw; n entries are enough for any one of them, the rest postpones the
	// first compaction.
	nnz := p.Ptr[n]
	slab := make([]int, 10*n+nnz+nnz/5+n)
	carve := func() []int { s := slab[:n:n]; slab = slab[n:]; return s }
	var (
		pe     = carve() // list start; flip(parent) once absorbed; -1 for a root or withheld variable
		length = carve() // list length
		elen   = carve() // variable: elements at the front of its list (none yet); isElement; isDead
		nv     = carve() // supervariable size; 0 once absorbed; negated while in the current Lk
		degree = carve() // variable: approximate external degree; element: |Le| in variables
		w      = carve() // element: mark+|Le∖Lk|, 0 once absorbed; variable: list-comparison stamp
		head   = carve() // degree lists
		next   = carve() // degree-list and hash-bucket links; per-pivot position counter at the end
		prev   = carve() // degree-list back links; hash of a variable in Lk; elimination position of a pivot
		hhead  = carve() // hash buckets
		iw     = slab
	)
	const (
		isElement = -2
		isDead    = -1
	)

	// Build the quotient graph without the dense variables.
	nel, ndense, pfree := 0, 0, 0
	for i := 0; i < n; i++ {
		head[i], hhead[i], next[i], prev[i] = -1, -1, -1, -1
		nv[i], w[i] = 1, 1
		if p.Ptr[i+1]-p.Ptr[i] > dense {
			nv[i], elen[i], pe[i] = 0, isDead, -1
			ndense++
		}
	}
	for i := 0; i < n; i++ {
		if nv[i] == 0 {
			continue
		}
		pe[i] = pfree
		for _, j := range p.Ind[p.Ptr[i]:p.Ptr[i+1]] {
			if nv[j] != 0 {
				iw[pfree] = j
				pfree++
			}
		}
		d := pfree - pe[i]
		length[i], degree[i] = d, d
		if d == 0 {
			// No neighbour left: an empty element, eliminated at once.
			elen[i], pe[i], w[i] = isElement, -1, 0
			prev[i] = nel
			nel++
			continue
		}
		if head[d] != -1 {
			prev[head[d]] = i
		}
		next[i] = head[d]
		head[d] = i
	}
	nlive := n - ndense

	mark, mindeg, lemax := 2, 0, 0
	for nel < nlive {
		// Select the pivot: the head of the lowest non-empty degree list.
		for head[mindeg] == -1 {
			mindeg++
		}
		k := head[mindeg]
		head[mindeg] = next[k]
		if next[k] != -1 {
			prev[next[k]] = -1
		}
		elenk, nvk := elen[k], nv[k]
		prev[k] = nel
		nel += nvk

		if elenk > 0 && pfree+mindeg >= len(iw) {
			pfree = compact(iw, pe, length, pfree)
		}

		// Build Lk, the union of k's variable list and the lists of its
		// elements, which k absorbs. With no element the list is pruned
		// in place; otherwise it is assembled at the end of iw.
		dk := 0
		nv[k] = -nvk
		pk := pe[k]
		pk1 := pfree
		if elenk == 0 {
			pk1 = pk
		}
		pk2 := pk1
		for k1 := 0; k1 <= elenk; k1++ {
			e, pj, ln := k, pk, length[k]-elenk
			if k1 < elenk {
				e = iw[pk]
				pk++
				pj, ln = pe[e], length[e]
			}
			for _, i := range iw[pj : pj+ln] {
				nvi := nv[i]
				if nvi <= 0 {
					continue // dead, or already in Lk
				}
				dk += nvi
				nv[i] = -nvi
				iw[pk2] = i
				pk2++
				if next[i] != -1 {
					prev[next[i]] = prev[i]
				}
				if prev[i] != -1 {
					next[prev[i]] = next[i]
				} else {
					head[degree[i]] = next[i]
				}
			}
			if e != k {
				pe[e] = flip(k)
				w[e] = 0
			}
		}
		if elenk != 0 {
			pfree = pk2
		}
		degree[k], pe[k], length[k], elen[k] = dk, pk1, pk2-pk1, isElement

		// First pass: w[e]-mark becomes |Le∖Lk| for every element e
		// adjacent to a variable of Lk.
		for _, i := range iw[pk1:pk2] {
			eln := elen[i]
			if eln <= 0 {
				continue
			}
			nvi := -nv[i]
			wnvi := mark - nvi
			for _, e := range iw[pe[i] : pe[i]+eln] {
				if w[e] >= mark {
					w[e] -= nvi
				} else if w[e] != 0 {
					w[e] = degree[e] + wnvi
				}
			}
		}

		// Second pass: prune each list, absorb covered elements, update
		// the degree, hash the list.
		for _, i := range iw[pk1:pk2] {
			p1 := pe[i]
			p2 := p1 + elen[i]
			pn := p1
			h, d := 0, 0
			for _, e := range iw[p1:p2] {
				if w[e] == 0 {
					continue
				}
				if dext := w[e] - mark; dext > 0 {
					d += dext
					iw[pn] = e
					pn++
					h += e
				} else {
					pe[e] = flip(k) // Le ⊆ Lk: aggressive absorption
					w[e] = 0
				}
			}
			elen[i] = pn - p1 + 1
			p3 := pn
			for _, j := range iw[p2 : p1+length[i]] {
				nvj := nv[j]
				if nvj <= 0 {
					continue
				}
				d += nvj
				iw[pn] = j
				pn++
				h += j
			}
			if d == 0 {
				// Adjacent to nothing outside Lk: mass elimination.
				pe[i] = flip(k)
				nvi := -nv[i]
				dk -= nvi
				nvk += nvi
				nel += nvi
				nv[i], elen[i] = 0, isDead
				continue
			}
			degree[i] = min(degree[i], d)
			// k goes first; the first element and the first variable each
			// move to the end of their part. Pruning freed at least the
			// slot k (or the element that held it) occupied.
			iw[pn] = iw[p3]
			iw[p3] = iw[p1]
			iw[p1] = k
			length[i] = pn - p1 + 1
			h %= n
			next[i] = hhead[h]
			hhead[h] = i
			prev[i] = h
		}
		degree[k] = dk
		lemax = max(lemax, dk)
		mark += lemax // at most n per pivot, so it stays below n² overall

		// Supervariables: merge the variables of Lk whose lists coincide.
		for _, i := range iw[pk1:pk2] {
			if nv[i] >= 0 {
				continue
			}
			h := prev[i]
			i = hhead[h]
			hhead[h] = -1
			for ; i != -1 && next[i] != -1; i, mark = next[i], mark+1 {
				ln, eln := length[i], elen[i]
				for _, x := range iw[pe[i]+1 : pe[i]+ln] {
					w[x] = mark
				}
				jlast := i
				for j := next[i]; j != -1; {
					same := length[j] == ln && elen[j] == eln
					if same {
						for _, x := range iw[pe[j]+1 : pe[j]+ln] {
							if w[x] != mark {
								same = false
								break
							}
						}
					}
					if !same {
						jlast = j
						j = next[j]
						continue
					}
					pe[j] = flip(i)
					nv[i] += nv[j] // both negated
					nv[j], elen[j] = 0, isDead
					j = next[j]
					next[jlast] = j
				}
			}
		}

		// Keep the surviving variables as Lk and put them back in the
		// degree lists.
		pn := pk1
		for _, i := range iw[pk1:pk2] {
			nvi := -nv[i]
			if nvi <= 0 {
				continue
			}
			nv[i] = nvi
			d := min(degree[i]+dk-nvi, nlive-nel-nvi)
			if head[d] != -1 {
				prev[head[d]] = i
			}
			next[i] = head[d]
			prev[i] = -1
			head[d] = i
			mindeg = min(mindeg, d)
			degree[i] = d
			iw[pn] = i
			pn++
		}
		nv[k] = nvk
		length[k] = pn - pk1
		if pn == pk1 {
			pe[k], w[k] = -1, 0
		}
		if elenk != 0 {
			pfree = pn
		}
	}

	// Positions. A pivot got its position when it was selected; whatever
	// was merged into it or eliminated with it follows, in index order; the
	// withheld dense variables come last.
	for i := 0; i < n; i++ {
		if elen[i] == isElement {
			perm[i] = prev[i]
			next[i] = prev[i] + 1
		}
	}
	for i := 0; i < n; i++ {
		if elen[i] == isElement {
			continue
		}
		if pe[i] == -1 {
			perm[i] = nel
			nel++
			continue
		}
		e := flip(pe[i])
		for elen[e] != isElement {
			e = flip(pe[e])
		}
		for x := i; x != e; { // path compression keeps this pass linear
			up := flip(pe[x])
			pe[x] = flip(e)
			x = up
		}
		perm[i] = next[e]
		next[e]++
	}
	return perm
}

// flip maps a parent index to the negative value that stores it in pe, and
// back; -1 stays free to mean "no parent".
func flip(i int) int { return -i - 2 }

// compact squeezes the dead space out of iw[:pfree], keeping the lists in
// their order, and returns the new end of the used part. Every list with
// pe[j] >= 0 is live and non-empty.
func compact(iw, pe, length []int, pfree int) int {
	for j, p := range pe {
		if p >= 0 {
			pe[j] = iw[p] // first entry, kept here while its slot names the owner
			iw[p] = flip(j)
		}
	}
	q := 0
	for p := 0; p < pfree; {
		j := flip(iw[p])
		p++
		if j < 0 {
			continue
		}
		iw[q] = pe[j]
		pe[j] = q
		q++
		q += copy(iw[q:], iw[p:p+length[j]-1])
		p += length[j] - 1
	}
	return q
}
