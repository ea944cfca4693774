package ordering

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gesp/internal/sparse"
)

// patternFromEdges builds a symmetric Pattern from an undirected edge list.
func patternFromEdges(n int, edges [][2]int) *sparse.Pattern {
	adj := make([][]int, n)
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	p := &sparse.Pattern{N: n, Ptr: make([]int, n+1)}
	for v := 0; v < n; v++ {
		seen := map[int]bool{}
		var u []int
		for _, w := range adj[v] {
			if w != v && !seen[w] {
				seen[w] = true
				u = append(u, w)
			}
		}
		for i := 1; i < len(u); i++ {
			for j := i; j > 0 && u[j] < u[j-1]; j-- {
				u[j], u[j-1] = u[j-1], u[j]
			}
		}
		p.Ind = append(p.Ind, u...)
		p.Ptr[v+1] = len(p.Ind)
	}
	return p
}

// symbolicFill counts fill-in edges created by symmetric Gaussian
// elimination of the pattern in the given order (perm: old -> new).
// Brute-force set simulation; for test-sized graphs only.
func symbolicFill(p *sparse.Pattern, perm []int) int {
	n := p.N
	inv := sparse.InversePerm(perm)
	adj := make([]map[int]bool, n)
	for v := 0; v < n; v++ {
		adj[v] = map[int]bool{}
	}
	for v := 0; v < n; v++ {
		for k := p.Ptr[v]; k < p.Ptr[v+1]; k++ {
			adj[v][p.Ind[k]] = true
		}
	}
	fill := 0
	eliminated := make([]bool, n)
	for pos := 0; pos < n; pos++ {
		v := inv[pos]
		var nbrs []int
		for u := range adj[v] {
			if !eliminated[u] {
				nbrs = append(nbrs, u)
			}
		}
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				a, b := nbrs[i], nbrs[j]
				if !adj[a][b] {
					adj[a][b] = true
					adj[b][a] = true
					fill++
				}
			}
		}
		eliminated[v] = true
	}
	return fill
}

func gridPattern(rows, cols int) *sparse.Pattern {
	var edges [][2]int
	id := func(i, j int) int { return i*cols + j }
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if j+1 < cols {
				edges = append(edges, [2]int{id(i, j), id(i, j+1)})
			}
			if i+1 < rows {
				edges = append(edges, [2]int{id(i, j), id(i+1, j)})
			}
		}
	}
	return patternFromEdges(rows*cols, edges)
}

func TestMinimumDegreePathGraphNoFill(t *testing.T) {
	// A path is chordal: minimum degree must find a no-fill ordering.
	n := 50
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	p := patternFromEdges(n, edges)
	perm := MinimumDegree(p)
	if err := sparse.CheckPerm(perm, n); err != nil {
		t.Fatal(err)
	}
	if fill := symbolicFill(p, perm); fill != 0 {
		t.Errorf("path graph fill = %d, want 0", fill)
	}
}

func TestMinimumDegreeStarGraph(t *testing.T) {
	// Star: leaves must be eliminated before the hub; zero fill results.
	n := 20
	var edges [][2]int
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	p := patternFromEdges(n, edges)
	perm := MinimumDegree(p)
	// Once one leaf remains, hub and leaf tie at degree 1, so the hub may be
	// eliminated at position n-2 or n-1; any earlier means degrees are wrong.
	if perm[0] < n-2 {
		t.Errorf("hub eliminated at position %d, want >= %d", perm[0], n-2)
	}
	if fill := symbolicFill(p, perm); fill != 0 {
		t.Errorf("star graph fill = %d, want 0", fill)
	}
}

func TestMinimumDegreeTreeNoFill(t *testing.T) {
	// Any tree is chordal: MD must achieve zero fill.
	rng := rand.New(rand.NewSource(5))
	n := 60
	var edges [][2]int
	for v := 1; v < n; v++ {
		edges = append(edges, [2]int{rng.Intn(v), v})
	}
	p := patternFromEdges(n, edges)
	perm := MinimumDegree(p)
	if fill := symbolicFill(p, perm); fill != 0 {
		t.Errorf("tree fill = %d, want 0", fill)
	}
}

func TestMinimumDegreeBeatsNaturalOnGrid(t *testing.T) {
	p := gridPattern(9, 9)
	n := p.N
	md := MinimumDegree(p)
	if err := sparse.CheckPerm(md, n); err != nil {
		t.Fatal(err)
	}
	fillMD := symbolicFill(p, md)
	fillNat := symbolicFill(p, sparse.IdentityPerm(n))
	if fillMD >= fillNat {
		t.Errorf("grid fill: MD %d, natural %d; MD should win", fillMD, fillNat)
	}
	t.Logf("9x9 grid fill: MD=%d natural=%d", fillMD, fillNat)
}

func TestMinimumDegreeIsPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		var edges [][2]int
		for k := 0; k < n*2; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
		p := patternFromEdges(n, edges)
		perm := MinimumDegree(p)
		return sparse.CheckPerm(perm, n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func bandwidth(p *sparse.Pattern, perm []int) int {
	bw := 0
	for v := 0; v < p.N; v++ {
		for k := p.Ptr[v]; k < p.Ptr[v+1]; k++ {
			if d := perm[v] - perm[p.Ind[k]]; d > bw {
				bw = d
			} else if -d > bw {
				bw = -d
			}
		}
	}
	return bw
}

func TestRCMReducesBandwidth(t *testing.T) {
	// A path presented in shuffled labels has large natural bandwidth; RCM
	// must restore bandwidth 1.
	rng := rand.New(rand.NewSource(9))
	n := 40
	labels := rng.Perm(n)
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{labels[i], labels[i+1]})
	}
	p := patternFromEdges(n, edges)
	perm := ReverseCuthillMcKee(p)
	if err := sparse.CheckPerm(perm, n); err != nil {
		t.Fatal(err)
	}
	if bw := bandwidth(p, perm); bw != 1 {
		t.Errorf("RCM bandwidth on shuffled path = %d, want 1", bw)
	}
}

func TestRCMHandlesDisconnected(t *testing.T) {
	p := patternFromEdges(6, [][2]int{{0, 1}, {2, 3}}) // plus isolated 4, 5
	perm := ReverseCuthillMcKee(p)
	if err := sparse.CheckPerm(perm, 6); err != nil {
		t.Fatal(err)
	}
}

func TestMinimumDegreeHandlesDisconnected(t *testing.T) {
	p := patternFromEdges(7, [][2]int{{0, 1}, {1, 2}, {4, 5}})
	perm := MinimumDegree(p)
	if err := sparse.CheckPerm(perm, 7); err != nil {
		t.Fatal(err)
	}
	if fill := symbolicFill(p, perm); fill != 0 {
		t.Errorf("disconnected forest fill = %d, want 0", fill)
	}
}

func TestOrderDispatch(t *testing.T) {
	a := sparse.FromDense([][]float64{
		{4, 1, 0, 0},
		{1, 4, 1, 0},
		{0, 1, 4, 1},
		{0, 0, 1, 4},
	})
	for _, m := range []Method{MinDegATA, MinDegAPlusAT, RCM, Natural} {
		perm := Order(a, m)
		if err := sparse.CheckPerm(perm, 4); err != nil {
			t.Errorf("%v: %v", m, err)
		}
		if m.String() == "unknown" {
			t.Errorf("method %d has no name", m)
		}
		if got, ok := ParseMethod(m.String()); !ok || got != m {
			t.Errorf("ParseMethod(%q) = %v, %v", m.String(), got, ok)
		}
	}
	nat := Order(a, Natural)
	for i, v := range nat {
		if v != i {
			t.Error("Natural ordering is not identity")
			break
		}
	}
}

func TestNestedDissectionGrid(t *testing.T) {
	p := gridPattern(12, 12)
	n := p.N
	nd := NestedDissection(p)
	if err := sparse.CheckPerm(nd, n); err != nil {
		t.Fatal(err)
	}
	fillND := symbolicFill(p, nd)
	fillNat := symbolicFill(p, sparse.IdentityPerm(n))
	if fillND >= fillNat {
		t.Errorf("grid fill: ND %d, natural %d; ND should win", fillND, fillNat)
	}
	t.Logf("12x12 grid fill: ND=%d natural=%d MD=%d", fillND, fillNat, symbolicFill(p, MinimumDegree(p)))
}

func TestNestedDissectionPathNoFillExplosion(t *testing.T) {
	n := 100
	var edges [][2]int
	for i := 0; i+1 < n; i++ {
		edges = append(edges, [2]int{i, i + 1})
	}
	p := patternFromEdges(n, edges)
	perm := NestedDissection(p)
	if err := sparse.CheckPerm(perm, n); err != nil {
		t.Fatal(err)
	}
	// ND on a path yields O(n log n)-ish fill at worst; far below dense.
	if fill := symbolicFill(p, perm); fill > n*10 {
		t.Errorf("path fill %d too large", fill)
	}
}

func TestNestedDissectionDisconnected(t *testing.T) {
	p := patternFromEdges(50, [][2]int{{0, 1}, {2, 3}, {10, 11}, {11, 12}})
	perm := NestedDissection(p)
	if err := sparse.CheckPerm(perm, 50); err != nil {
		t.Fatal(err)
	}
}

func TestNestedDissectionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(120)
		var edges [][2]int
		for k := 0; k < n*3; k++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				edges = append(edges, [2]int{a, b})
			}
		}
		p := patternFromEdges(n, edges)
		return sparse.CheckPerm(NestedDissection(p), n) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestOrderDispatchND(t *testing.T) {
	a := sparse.FromDense([][]float64{
		{4, 1, 0, 0},
		{1, 4, 1, 0},
		{0, 1, 4, 1},
		{0, 0, 1, 4},
	})
	for _, m := range []Method{NDATA, NDAPlusAT} {
		if err := sparse.CheckPerm(Order(a, m), 4); err != nil {
			t.Errorf("%v: %v", m, err)
		}
		if m.String() == "unknown" {
			t.Errorf("method %d has no name", m)
		}
	}
}

// exactMinimumDegree is the fill oracle for MinimumDegree: the minimum
// external degree ordering this package shipped before the approximate
// one, kept here the way scalar kernels are kept as test oracles. Quotient
// graph with element absorption; degrees are recomputed exactly, by a
// union walk over every element boundary of every affected vertex after
// each pivot — O(n·m), which is why it is no longer production code.
func exactMinimumDegree(p *sparse.Pattern) []int {
	n := p.N
	// Quotient graph state. Vertex ids double as element ids once
	// eliminated. Variable-neighbour lists only ever compact in place, so
	// they are carved from one contiguous slab (a copy of the pattern)
	// instead of n separate heap slices: adjacent vertices' lists stay
	// adjacent in memory, which is where the degree-update sweeps spend
	// their time.
	adjn := make([][]int, n) // variable neighbours
	adje := make([][]int, n) // element neighbours
	boundary := make([][]int, n)
	eliminated := make([]bool, n)
	absorbedInto := make([]int, n) // -1, or the element this one merged into
	adjSlab := make([]int, len(p.Ind))
	copy(adjSlab, p.Ind)
	for v := 0; v < n; v++ {
		adjn[v] = adjSlab[p.Ptr[v]:p.Ptr[v+1]:p.Ptr[v+1]]
		absorbedInto[v] = -1
	}

	// Degree buckets: doubly linked lists indexed by current degree.
	deg := make([]int, n)
	head := make([]int, n+1)
	next := make([]int, n)
	prev := make([]int, n)
	for d := range head {
		head[d] = -1
	}
	insert := func(v, d int) {
		deg[v] = d
		next[v] = head[d]
		prev[v] = -1
		if head[d] != -1 {
			prev[head[d]] = v
		}
		head[d] = v
	}
	remove := func(v int) {
		if prev[v] != -1 {
			next[prev[v]] = next[v]
		} else {
			head[deg[v]] = next[v]
		}
		if next[v] != -1 {
			prev[next[v]] = prev[v]
		}
	}
	for v := 0; v < n; v++ {
		insert(v, len(adjn[v]))
	}

	find := func(e int) int {
		for absorbedInto[e] != -1 {
			e = absorbedInto[e]
		}
		return e
	}

	// Generation-stamped scratch marks: markGen/deg2Gen strictly increase, so
	// stale stamps from earlier rounds can never alias the current one.
	mark := make([]int, n)
	for i := range mark {
		mark[i] = -1
	}
	mark2 := make([]int, n)
	for i := range mark2 {
		mark2[i] = -1
	}
	markGen, deg2Gen := 0, 0
	perm := make([]int, n)
	lv := make([]int, 0, 64)
	minDeg := 0

	for pos := 0; pos < n; pos++ {
		// Find the minimum-degree vertex.
		for minDeg <= n && head[minDeg] == -1 {
			minDeg++
		}
		v := head[minDeg]
		remove(v)
		eliminated[v] = true
		perm[v] = pos

		// Build Lv = boundary of the new element v.
		markGen++
		lv = lv[:0]
		for _, u := range adjn[v] {
			if !eliminated[u] && mark[u] != markGen {
				mark[u] = markGen
				lv = append(lv, u)
			}
		}
		for _, e0 := range adje[v] {
			e := find(e0)
			if e == v || absorbedInto[e] != -1 {
				continue
			}
			for _, u := range boundary[e] {
				if !eliminated[u] && u != v && mark[u] != markGen {
					mark[u] = markGen
					lv = append(lv, u)
				}
			}
			absorbedInto[e] = v
			boundary[e] = nil
		}
		boundary[v] = append([]int(nil), lv...)
		adjn[v], adje[v] = nil, nil

		// Update each boundary vertex.
		for _, u := range lv {
			// Compact variable neighbours: drop eliminated vertices and
			// vertices covered by the new element.
			w := adjn[u][:0]
			for _, x := range adjn[u] {
				if !eliminated[x] && mark[x] != markGen {
					w = append(w, x)
				}
			}
			adjn[u] = w
			// Compact element neighbours: resolve absorption, dedupe, and
			// append the new element.
			we := adje[u][:0]
			for _, e0 := range adje[u] {
				e := find(e0)
				if e == v { // the new element is appended below
					continue
				}
				dup := false
				for _, y := range we {
					if y == e {
						dup = true
						break
					}
				}
				if !dup {
					we = append(we, e)
				}
			}
			adje[u] = append(we, v)

			// Exact external degree: |adjn[u]| plus union of live element
			// boundaries, excluding u itself.
			deg2Gen++
			d := 0
			mark2[u] = deg2Gen
			for _, x := range adjn[u] {
				if mark2[x] != deg2Gen {
					mark2[x] = deg2Gen
					d++
				}
			}
			for _, e := range adje[u] {
				for _, x := range boundary[e] {
					if !eliminated[x] && mark2[x] != deg2Gen {
						mark2[x] = deg2Gen
						d++
					}
				}
			}
			remove(u)
			insert(u, d)
			if d < minDeg {
				minDeg = d
			}
		}
	}
	return perm
}
