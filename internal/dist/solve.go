package dist

// Distributed triangular solves, following the paper's Figure 9: the
// "inner product" formulation driven by messages, with the fmod/frecv
// counters of the lower solve and the bmod/brecv counters of the upper
// solve kept by one machine — the static block DAG is the same, walked
// in opposite directions. Execution is fully asynchronous: a rank loops
// on RecvAny and reacts to whichever partial sum or solution subvector
// arrives.

// sweepPlan is one rank's static schedule for one sweep direction. Every
// block row i the rank touches lies on its process row and every block
// column j on its process column, so rows are indexed by i / PRow and
// columns by j / PCol: the schedule's size is the rank's share.
type sweepPlan struct {
	// mod[i/PRow] counts this rank's local contributions to row i, one
	// per block (i, j) it owns (the paper's fmod/bmod). remaining[k/PRow],
	// for an owned diagonal, counts the contributions x(K) waits for: one
	// partial sum per remote contributing process (each a message to
	// expect) plus one if this rank contributes locally. expect counts the
	// messages the rank will receive: those sums, and one x(J) for every
	// block column J in which it owns a block but not the diagonal.
	mod, remaining []int32
	expect         int
	// The blocks (i, j) this rank owns, by column j: with c = j/PCol,
	// rows[col[c]:col[c+1]] and blks alongside, ascending in i.
	col  []int32
	rows []int32
	blks []*Block
}

// sweepScratch is the state one sweep mutates, reused across sweeps.
// The partial sums of the rows on this rank's process row are views of
// one slab, cleared per sweep: a sum sent away is read by its receiver
// before the barrier that ends the sweep.
type sweepScratch struct {
	mod, remaining []int32
	sum            [][]float64 // by row, like mod
	sumSlab        []float64
	acc            []float64
}

// sweepPlan builds (once per attempt) this rank's schedule for the lower
// (upper false) or upper sweep from the blocks it owns.
func (w *worker) sweepPlan(upper bool) *sweepPlan {
	d := 0
	if upper {
		d = 1
	}
	if sp := w.sweeps[d]; sp != nil {
		return sp
	}
	st, p, g, ns := w.st, w.p, w.g, w.st.N
	nr, nc := ns/g.PRow+1, ns/g.PCol+1
	sp := &sweepPlan{mod: make([]int32, nr), remaining: make([]int32, nr), col: make([]int32, nc+1)}
	// owned visits the owned off-diagonal blocks of the direction, (i, j)
	// with i in ColL[j] (lower) or ColU[j] (upper), panel by panel.
	owned := func(f func(i, j int, b *Block)) {
		if !upper {
			for j := w.myC; j < ns; j += g.PCol {
				li := p.l.group(j, w.myR)
				for q, b := range w.lPanel(j, li) {
					f(st.ColL[j][li[q]], j, b)
				}
			}
			return
		}
		for i := w.myR; i < ns; i += g.PRow {
			ui := p.u.group(i, w.myC)
			for q, b := range w.uRow(i, ui) {
				f(i, st.RowU[i][ui[q]], b)
			}
		}
	}
	owned(func(i, j int, _ *Block) {
		sp.mod[i/g.PRow]++
		sp.col[j/g.PCol+1]++
	})
	for j := w.myC; j < ns; j += g.PCol {
		if sp.col[j/g.PCol+1] > 0 && j%g.PRow != w.myR {
			sp.expect++ // a column whose diagonal lives elsewhere
		}
	}
	for c := 0; c < nc; c++ {
		sp.col[c+1] += sp.col[c]
	}
	sp.rows = make([]int32, sp.col[nc])
	sp.blks = make([]*Block, sp.col[nc])
	fill := append([]int32(nil), sp.col[:nc]...)
	owned(func(i, j int, b *Block) {
		c := j / g.PCol
		sp.rows[fill[c]], sp.blks[fill[c]] = int32(i), b
		fill[c]++
	})
	// The blocks (k, j) feeding x(K) sit on process row K mod PRow, one
	// process per distinct column j mod PCol.
	row := st.RowL
	if upper {
		row = st.RowU
	}
	seen := make([]bool, g.PCol)
	for _, k := range w.diags {
		kr := k / g.PRow
		for _, j := range row[k] {
			if c := j % g.PCol; c != w.myC && !seen[c] {
				seen[c] = true
				sp.remaining[kr]++
			}
		}
		for _, j := range row[k] {
			seen[j%g.PCol] = false
		}
		sp.expect += int(sp.remaining[kr])
		if sp.mod[kr] > 0 {
			sp.remaining[kr]++
		}
	}
	w.sweeps[d] = sp
	return sp
}

// sweep computes x = L⁻¹·rhs (upper false) or x = U⁻¹·rhs (upper true).
// rhs(k) is the right-hand side of supernode k, asked of k's diagonal
// owner only. The result holds x(k) for every supernode k whose diagonal
// this rank owns, at k's position in w.diags.
func (w *worker) sweep(upper bool, rhs func(k int) []float64) [][]float64 {
	st, pr, pc := w.st, w.g.PRow, w.g.PCol
	sp := w.sweepPlan(upper)
	// The direction: col[k] lists the block rows i of the off-diagonal
	// blocks (i, k) that x(k) is multiplied into — the destinations of
	// its broadcast.
	col, diagSolve := st.ColL, (*Block).ForwardSolveDiag
	if upper {
		col, diagSolve = st.ColU, (*Block).BackSolveDiag
	}
	sc := &w.sw
	sc.mod = append(sc.mod[:0], sp.mod...)
	sc.remaining = append(sc.remaining[:0], sp.remaining...)
	if sc.sum == nil {
		sc.sum = make([][]float64, len(sp.mod))
		n := 0
		for i := w.myR; i < st.N; i += pr {
			n += st.SupWidth(i)
		}
		sc.sumSlab = make([]float64, n)
		for i, rest := w.myR, sc.sumSlab; i < st.N; i += pr {
			wi := st.SupWidth(i)
			sc.sum[i/pr], rest = rest[:wi:wi], rest[wi:]
		}
	}
	clear(sc.sumSlab)
	mod, remaining, sum := sc.mod, sc.remaining, sc.sum
	// The results x(K) are views of one slab per sweep: they outlive it.
	xs := make([][]float64, len(w.diags))
	n := 0
	for _, k := range w.diags {
		n += st.SupWidth(k)
	}
	xSlab := make([]float64, n)

	var solveK func(k int)

	arrived := func(k int) {
		remaining[k/pr]--
		if remaining[k/pr] == 0 {
			solveK(k)
		}
	}

	// applyX multiplies x(j) into every block (i, j) this rank owns.
	applyX := func(j int, x []float64) {
		jLo, _ := st.SupCols(j)
		for q := sp.col[j/pc]; q < sp.col[j/pc+1]; q++ {
			i, blk := int(sp.rows[q]), sp.blks[q]
			lo, _ := st.SupCols(i)
			w.r.Compute(blk.MatVecAdd(sum[i/pr], lo, x, jLo, &sc.acc))
			if mod[i/pr]--; mod[i/pr] > 0 {
				continue
			}
			// All local contributions to row i are in: route the partial
			// sum, by pointer, which boxes without allocating.
			if dst := w.owner(i, i); dst == w.me() {
				arrived(i)
			} else {
				w.r.Send(dst, tagOf(tagLSum, i), &sum[i/pr], 8*len(sum[i/pr]))
			}
		}
	}

	solveK = func(k int) {
		x := xSlab[:st.SupWidth(k):st.SupWidth(k)]
		xSlab = xSlab[len(x):]
		copy(x, rhs(k))
		for q, v := range sum[k/pr] {
			x[q] -= v
		}
		d := w.diagPos(k)
		w.r.Compute(diagSolve(w.bg.blocks[d], x))
		xs[d] = x
		// Broadcast x(K) along the process column to the owners of the
		// blocks it feeds.
		w.clearSent()
		for _, i := range col[k] {
			w.sendOnce(w.owner(i, k), tagOf(tagXSol, k), &xs[d], 8*len(x))
		}
		applyX(k, x)
	}

	// Kick off, in the sweep's direction: solvable diagonals with no
	// pending contributions. The xs-guard matters: a solveK cascade (via
	// applyX) may already have solved a later supernode.
	for q := range w.diags {
		d := q
		if upper {
			d = len(w.diags) - 1 - q
		}
		if k := w.diags[d]; remaining[k/pr] == 0 && xs[d] == nil {
			solveK(k)
		}
	}
	// Message-driven main loop (the paper's "while I have more work" with
	// receives of type LSUM and XSOL).
	for got := 0; got < sp.expect; got++ {
		_, tag, payload := w.r.RecvAny()
		k := tag / numTags
		switch tag % numTags {
		case tagLSum:
			acc := sum[k/pr]
			for q, v := range *payload.(*[]float64) {
				acc[q] += v
			}
			arrived(k)
		case tagXSol:
			applyX(k, *payload.(*[]float64))
		default:
			panic("dist: unexpected message in triangular solve")
		}
	}
	return xs
}

// gatherX assembles the distributed solution at rank 0 from every
// rank's sweep result xs.
func (w *worker) gatherX(xs [][]float64, out []float64) {
	diags := w.diags
	if w.me() != 0 {
		for d, k := range diags {
			w.r.Send(0, tagOf(tagGather, k), &xs[d], 8*len(xs[d]))
		}
		return
	}
	d := 0
	for k := 0; k < w.st.N; k++ {
		lo, hi := w.st.SupCols(k)
		if d < len(diags) && diags[d] == k {
			copy(out[lo:hi], xs[d])
			d++
		} else {
			copy(out[lo:hi], *w.r.Recv(w.owner(k, k), tagOf(tagGather, k)).(*[]float64))
		}
	}
}
