package dist

import "gesp/internal/mpisim"

// Options configure the distributed solver.
type Options struct {
	// Procs is the number of simulated processors (arranged automatically
	// into a near-square 2-D grid, as in the paper).
	Procs int
	// Grid overrides the automatic near-square arrangement, e.g. to
	// compare the 1-D column layout (1×P) against the paper's 2-D layout.
	Grid *mpisim.Grid
	// Model is the machine cost model (default: T3E-900 calibration).
	Model *mpisim.CostModel
	// Pipeline enables the paper's pipelined organization: processes
	// owning block column K+1 factor that panel as soon as the rank-b
	// update reaches it, before updating the rest of the trailing matrix.
	// (The paper measured 10–40% gains on 64 PEs.)
	Pipeline bool
	// EDAGPrune sends panels only to the process rows/columns that the
	// elimination DAGs prove need them, instead of send-to-all (the paper
	// measured 16% fewer messages for AF23560 on 32 PEs).
	EDAGPrune bool
	// ReplaceTinyPivot and Threshold mirror the serial options.
	ReplaceTinyPivot bool
	Threshold        float64
}

// message tags, disjoint per supernode iteration.
const (
	tagDiagForL = iota // factored diagonal block, for L-panel owners
	tagDiagForU        // factored diagonal block, for U-panel owners
	tagLPanel          // L(I,K) blocks, rowwise broadcast
	tagUPanel          // U(K,J) blocks, columnwise broadcast
	tagXSol            // solve: solution subvector x(K)
	tagLSum            // solve: partial inner-product sum
	tagGather          // gathering the solution to rank 0
	numTags
)

func tagOf(typ, k int) int { return k*numTags + typ }

// worker is the per-rank state of the distributed factorization/solve.
type worker struct {
	r      *mpisim.Rank
	g      mpisim.Grid
	st     *Structure
	bg     *BlockGrid // the blocks this rank owns; every other slot is nil
	opts   Options
	myR    int
	myC    int
	thresh float64

	panelDone []bool
	tiny      int
	zeroPivot bool
	// ws is the rank's reusable Schur-update scratch: one per simulated
	// rank keeps the update hot path allocation-free across the whole
	// factorization instead of allocating per block pair.
	ws UpdateScratch
	// lBlk/uBlk hold iteration k's operand blocks, parallel to
	// st.LBlocks[k]/UBlocks[k] (nil where this rank takes no part); sent
	// marks the ranks a broadcast has already reached.
	lBlk, uBlk []*Block
	sent       []bool

	// Checkpoint/restart hooks (zero values = plain fault-free run).
	// start is the first panel to execute (earlier panels were restored
	// from a checkpoint); ckptEvery > 0 enables a coordinated checkpoint
	// every ckptEvery panels, where onCkpt(k) receives the frontier k
	// right after the barrier that makes the cut consistent. Checkpoints
	// require the non-pipelined schedule: the barrier at the top of
	// iteration k proves every tag-<k message has been consumed and no
	// tag-≥k message exists yet, so the mailboxes are empty at the cut —
	// pipelining pre-runs panel k+1 and breaks that argument.
	start     int
	ckptEvery int
	onCkpt    func(k int)
}

// newWorker prepares rank r's state over an empty grid of the blocks
// the 2-D block-cyclic layout assigns to it.
func newWorker(r *mpisim.Rank, g mpisim.Grid, st *Structure, opts Options, thresh float64) *worker {
	myR, myC := g.Coords(r.ID())
	w := &worker{
		r: r, g: g, st: st, opts: opts, myR: myR, myC: myC, thresh: thresh,
		panelDone: make([]bool, st.N), sent: make([]bool, r.Size()),
	}
	w.bg = NewGrid(st, func(i, j int) bool { return w.owner(i, j) == w.me() })
	return w
}

func (w *worker) owner(i, j int) int { return w.g.OwnerOfBlock(i, j) }
func (w *worker) me() int            { return w.r.ID() }

// sendOnce sends payload to dst unless dst is this rank or the current
// broadcast (since the last clearSent) already reached it.
func (w *worker) sendOnce(dst, tag int, payload any, bytes int) {
	if dst != w.me() && !w.sent[dst] {
		w.sent[dst] = true
		w.r.Send(dst, tag, payload, bytes)
	}
}

func (w *worker) clearSent() {
	for i := range w.sent {
		w.sent[i] = false
	}
}

// procColsNeedingL returns the process columns that must receive panel K's
// L blocks: with pruning, the columns owning a supernode J with
// U(K,J) ≠ 0; without, every process column ("send-to-all").
func (w *worker) procColsNeedingL(k int) []int {
	if !w.opts.EDAGPrune {
		return rangeInts(0, w.g.PCol)
	}
	seen := make([]bool, w.g.PCol)
	var cols []int
	for _, ub := range w.st.UBlocks[k] {
		c := ub.J % w.g.PCol
		if !seen[c] {
			seen[c] = true
		}
	}
	for c := 0; c < w.g.PCol; c++ {
		if seen[c] {
			cols = append(cols, c)
		}
	}
	return cols
}

// procRowsNeedingU is the columnwise analogue for panel K's U blocks.
func (w *worker) procRowsNeedingU(k int) []int {
	if !w.opts.EDAGPrune {
		return rangeInts(0, w.g.PRow)
	}
	seen := make([]bool, w.g.PRow)
	var rows []int
	for _, lb := range w.st.LBlocks[k] {
		rr := lb.I % w.g.PRow
		if !seen[rr] {
			seen[rr] = true
		}
	}
	for rr := 0; rr < w.g.PRow; rr++ {
		if seen[rr] {
			rows = append(rows, rr)
		}
	}
	return rows
}

// doPanel performs steps (1) and (2) of the paper's Figure 8 for
// iteration K as far as this rank participates: factor the diagonal
// block, compute the L panel and U panel, and launch their broadcasts.
func (w *worker) doPanel(k int) {
	if w.panelDone[k] {
		return
	}
	w.panelDone[k] = true
	diagOwner := w.owner(k, k)
	var diag *Block

	if diagOwner == w.me() {
		diag = w.bg.Diag[k]
		tiny, flops, ok := diag.FactorDiag(w.thresh, w.opts.ReplaceTinyPivot)
		if !ok {
			w.zeroPivot = true
			// Continue with a substituted pivot to avoid deadlock; the
			// driver reports the failure.
			diag.FactorDiag(w.thresh, true)
		}
		w.tiny += tiny
		w.r.Compute(flops)
		// Send down the process column to L-panel owners.
		w.clearSent()
		for _, lb := range w.st.LBlocks[k] {
			w.sendOnce(w.owner(lb.I, k), tagOf(tagDiagForL, k), diag, diag.Bytes())
		}
		// Send along the process row to U-panel owners.
		w.clearSent()
		for _, ub := range w.st.UBlocks[k] {
			w.sendOnce(w.owner(k, ub.J), tagOf(tagDiagForU, k), diag, diag.Bytes())
		}
	}

	// L panel: procs in column K mod PCol owning L(I,K) blocks.
	if w.myC == k%w.g.PCol {
		ownsAny := false
		for _, lb := range w.st.LBlocks[k] {
			if w.owner(lb.I, k) == w.me() {
				ownsAny = true
				break
			}
		}
		if ownsAny {
			if diag == nil {
				diag = w.r.Recv(diagOwner, tagOf(tagDiagForL, k)).(*Block)
			}
			cols := w.procColsNeedingL(k)
			for li, lb := range w.st.LBlocks[k] {
				b := w.bg.L[k][li]
				if b == nil {
					continue
				}
				w.r.Compute(b.SolveUFromRight(diag))
				for _, c := range cols {
					dst := w.g.RankOf(lb.I%w.g.PRow, c)
					if dst != w.me() {
						w.r.Send(dst, tagOf(tagLPanel, k), b, b.Bytes())
					}
				}
			}
		}
	}

	// U panel: procs in row K mod PRow owning U(K,J) blocks.
	if w.myR == k%w.g.PRow {
		ownsAny := false
		for _, ub := range w.st.UBlocks[k] {
			if w.owner(k, ub.J) == w.me() {
				ownsAny = true
				break
			}
		}
		if ownsAny {
			if diag == nil {
				diag = w.r.Recv(diagOwner, tagOf(tagDiagForU, k)).(*Block)
			}
			rows := w.procRowsNeedingU(k)
			for ui, ub := range w.st.UBlocks[k] {
				b := w.bg.U[k][ui]
				if b == nil {
					continue
				}
				w.r.Compute(b.SolveLFromLeft(diag))
				for _, rr := range rows {
					dst := w.g.RankOf(rr, ub.J%w.g.PCol)
					if dst != w.me() {
						w.r.Send(dst, tagOf(tagUPanel, k), b, b.Bytes())
					}
				}
			}
		}
	}
}

// factorize runs the right-looking distributed LU of the paper's
// Figure 8, with optional pipelining, starting at panel w.start (0 in
// a fresh run, the checkpoint frontier after a restart).
func (w *worker) factorize() {
	ns := w.st.N
	for k := w.start; k < ns; k++ {
		if w.ckptEvery > 0 && k > w.start && (k-w.start)%w.ckptEvery == 0 {
			w.r.Barrier()
			w.onCkpt(k)
		}
		w.doPanel(k)

		// Gather the L and U blocks this rank needs for the rank-b update
		// (local blocks directly; remote blocks from the single source in
		// this row/column, in deterministic ascending order).
		lbs, ubs := w.st.LBlocks[k], w.st.UBlocks[k]
		needL := w.receivesL(k)
		needU := w.receivesU(k)
		lBlk := append(w.lBlk[:0], w.bg.L[k]...)
		uBlk := append(w.uBlk[:0], w.bg.U[k]...)
		w.lBlk, w.uBlk = lBlk, uBlk
		srcL := w.g.RankOf(w.myR, k%w.g.PCol)
		srcU := w.g.RankOf(k%w.g.PRow, w.myC)
		for li, lb := range lbs {
			if lBlk[li] == nil && needL && lb.I%w.g.PRow == w.myR {
				lBlk[li] = w.r.Recv(srcL, tagOf(tagLPanel, k)).(*Block)
			}
		}
		for ui, ub := range ubs {
			if uBlk[ui] == nil && needU && ub.J%w.g.PCol == w.myC {
				uBlk[ui] = w.r.Recv(srcU, tagOf(tagUPanel, k)).(*Block)
			}
		}

		apply := func(li, ui int) {
			l, u := lBlk[li], uBlk[ui]
			if l == nil || u == nil {
				return
			}
			// A nil target is possible only with relaxed (amalgamated)
			// supernodes: the block-level crossing exists but every
			// elementwise contribution hits structural-zero padding, so no
			// target block was ever allocated.
			if t := w.bg.Target(lbs[li].I, ubs[ui].J); t != nil {
				w.r.Compute(t.RankBUpdateInto(l, u, &w.ws))
			}
		}

		// Pipelined: update block column K+1 and block row K+1 first, then
		// factor panel K+1 immediately — this shortens the critical path of
		// step (1), exactly the paper's pipelined organization. Block lists
		// ascend, so the operands in block row/column K+1, where present,
		// are the first of each (index 0).
		l1, u1 := -1, -1
		if w.opts.Pipeline && k+1 < ns {
			if len(lbs) > 0 && lbs[0].I == k+1 {
				l1 = 0
			}
			if len(ubs) > 0 && ubs[0].J == k+1 {
				u1 = 0
				for li := range lbs {
					apply(li, u1)
				}
			}
			if l1 == 0 {
				for ui := range ubs {
					if ui != u1 { // (k+1,k+1) was applied by the loop above
						apply(l1, ui)
					}
				}
			}
			w.doPanel(k + 1)
		}
		for li := range lbs {
			for ui := range ubs {
				if li != l1 && ui != u1 {
					apply(li, ui)
				}
			}
		}
	}
	if w.ckptEvery > 0 {
		// Final checkpoint at frontier ns: a restart after a solve-phase
		// failure replays no factorization at all.
		w.r.Barrier()
		w.onCkpt(ns)
	}
}

// receivesL reports whether this rank is a broadcast destination for
// panel K's L blocks (it is when unpruned, or when its process column
// hosts a supernode with U(K,J) ≠ 0).
func (w *worker) receivesL(k int) bool {
	if w.myC == k%w.g.PCol {
		return false // owners use local blocks
	}
	if !w.opts.EDAGPrune {
		return true
	}
	for _, ub := range w.st.UBlocks[k] {
		if ub.J%w.g.PCol == w.myC {
			return true
		}
	}
	return false
}

func (w *worker) receivesU(k int) bool {
	if w.myR == k%w.g.PRow {
		return false
	}
	if !w.opts.EDAGPrune {
		return true
	}
	for _, lb := range w.st.LBlocks[k] {
		if lb.I%w.g.PRow == w.myR {
			return true
		}
	}
	return false
}
