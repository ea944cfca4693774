package dist

// Distributed triangular solves, following the paper's Figure 9: the
// "inner product" formulation driven by messages, with the fmod/frecv
// counters of the lower solve and the bmod/brecv counters of the upper
// solve kept by one machine — the static block DAG is the same, walked
// in opposite directions. Execution is fully asynchronous: a rank loops
// on RecvAny and reacts to whichever partial sum or solution subvector
// arrives.

// sweep computes x = L⁻¹·rhs (upper false) or x = U⁻¹·rhs (upper true).
// rhs(k) is the right-hand side of supernode k, asked of k's diagonal
// owner only; on return that owner holds x(k) in the result's slot k.
func (w *worker) sweep(upper bool, rhs func(k int) []float64) [][]float64 {
	st, ns := w.st, w.st.N
	// The direction: col[k] lists the block rows i of the off-diagonal
	// blocks (i, k) that x(k) is multiplied into — the destinations of
	// its broadcast — and row[k] the block columns j of the blocks (k, j)
	// whose products x(k) waits for.
	col, row, diagSolve := st.ColL, st.RowL, (*Block).ForwardSolveDiag
	if upper {
		col, row, diagSolve = st.ColU, st.RowU, (*Block).BackSolveDiag
	}

	// mod[i] counts this rank's pending local contributions to row i, one
	// per block (i, j) it owns (the paper's fmod/bmod); expect counts the
	// messages it will receive, first one x(J) for every block column J in
	// which it owns a block but not the diagonal.
	mod := make([]int, ns)
	expect := 0
	for j := 0; j < ns; j++ {
		ownsAny := false
		for _, i := range col[j] {
			if w.owner(i, j) == w.me() {
				mod[i]++
				ownsAny = true
			}
		}
		if ownsAny && w.owner(j, j) != w.me() {
			expect++
		}
	}

	// Per owned diagonal block: how many contributions remain before x(K)
	// can be solved — one partial sum per remote contributing process
	// (each a message to expect) plus one if this rank contributes locally.
	remaining := make([]int, ns)
	for k := 0; k < ns; k++ {
		if w.owner(k, k) != w.me() {
			continue
		}
		w.clearSent()
		for _, j := range row[k] {
			if o := w.owner(k, j); o != w.me() && !w.sent[o] {
				w.sent[o] = true
				remaining[k]++
			}
		}
		expect += remaining[k]
		if mod[k] > 0 {
			remaining[k]++
		}
	}

	sum := make([][]float64, ns)
	xs := make([][]float64, ns)

	addSum := func(i int, local []float64) {
		if sum[i] == nil {
			sum[i] = make([]float64, st.SupWidth(i))
		}
		for q, v := range local {
			sum[i][q] += v
		}
	}

	var solveK func(k int)

	arrived := func(k int) {
		remaining[k]--
		if remaining[k] == 0 {
			solveK(k)
		}
	}

	// applyX multiplies x(j) into every block (i, j) this rank owns.
	applyX := func(j int, x []float64) {
		jLo, _ := st.SupCols(j)
		for _, i := range col[j] {
			if w.owner(i, j) != w.me() {
				continue
			}
			blk := w.bg.Target(i, j)
			local := make([]float64, st.SupWidth(i))
			lo, _ := st.SupCols(i)
			w.r.Compute(blk.MatVecInto(func(r int, v float64) {
				local[r-lo] += v
			}, x, jLo))
			addSum(i, local)
			mod[i]--
			if mod[i] > 0 {
				continue
			}
			// All local contributions to row i are in: route the partial sum.
			if dst := w.owner(i, i); dst == w.me() {
				arrived(i)
			} else {
				w.r.Send(dst, tagOf(tagLSum, i), sum[i], 8*len(sum[i]))
			}
		}
	}

	solveK = func(k int) {
		x := append([]float64(nil), rhs(k)...)
		for q, v := range sum[k] {
			x[q] -= v
		}
		w.r.Compute(diagSolve(w.bg.Diag[k], x))
		xs[k] = x
		// Broadcast x(K) along the process column to the owners of the
		// blocks it feeds.
		w.clearSent()
		for _, i := range col[k] {
			w.sendOnce(w.owner(i, k), tagOf(tagXSol, k), x, 8*len(x))
		}
		applyX(k, x)
	}

	// Kick off, in the sweep's direction: solvable diagonals with no
	// pending contributions. The xs-guard matters: a solveK cascade (via
	// applyX) may already have solved a later supernode.
	for q := 0; q < ns; q++ {
		k := q
		if upper {
			k = ns - 1 - q
		}
		if w.owner(k, k) == w.me() && remaining[k] == 0 && xs[k] == nil {
			solveK(k)
		}
	}
	// Message-driven main loop (the paper's "while I have more work" with
	// receives of type LSUM and XSOL).
	for got := 0; got < expect; got++ {
		_, tag, payload := w.r.RecvAny()
		k := tag / numTags
		switch tag % numTags {
		case tagLSum:
			addSum(k, payload.([]float64))
			arrived(k)
		case tagXSol:
			applyX(k, payload.([]float64))
		default:
			panic("dist: unexpected message in triangular solve")
		}
	}
	return xs
}

// gatherX assembles the distributed solution at rank 0.
func (w *worker) gatherX(xs [][]float64, out []float64) {
	ns := w.st.N
	if w.me() == 0 {
		for k := 0; k < ns; k++ {
			lo, hi := w.st.SupCols(k)
			x := xs[k]
			if o := w.owner(k, k); o != 0 {
				x = w.r.Recv(o, tagOf(tagGather, k)).([]float64)
			}
			copy(out[lo:hi], x)
		}
		return
	}
	for k := 0; k < ns; k++ {
		if w.owner(k, k) == w.me() {
			w.r.Send(0, tagOf(tagGather, k), xs[k], 8*len(xs[k]))
		}
	}
}
