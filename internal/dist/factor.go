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
	r  *mpisim.Rank
	p  *plan
	g  mpisim.Grid
	st *Structure
	bg *BlockGrid // the blocks this rank owns
	// diags are the supernodes whose diagonal block this rank owns,
	// ascending: the grid's first blocks, so diag k is bg.blocks[d] at
	// its position d here.
	diags []int
	// lAt[K/PCol] is the position in bg.blocks of the first L block of
	// panel K this rank owns, uAt[K/PRow] that of block row K's first U
	// block (-1 if none); a panel's owned blocks follow contiguously.
	lAt, uAt []int32
	opts     Options
	myR      int
	myC      int
	thresh   float64

	panelDone []bool
	tiny      int
	zeroPivot bool
	// ws is the rank's reusable Schur-update scratch: one per simulated
	// rank keeps the update hot path allocation-free across the whole
	// factorization instead of allocating per block pair.
	ws UpdateScratch
	// lRecv/uRecv hold the operand blocks of the current panel received
	// from other ranks; sent marks the ranks a broadcast has already
	// reached.
	lRecv, uRecv []*Block
	sent         []bool
	// sweeps[0] and sweeps[1] are the lower and upper solve schedules,
	// built on first use; sw is the scratch one sweep runs in.
	sweeps [2]*sweepPlan
	sw     sweepScratch

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

// newWorker prepares rank r's state over bg, the grid of the blocks the
// plan's 2-D block-cyclic layout assigns to it.
func newWorker(r *mpisim.Rank, p *plan, bg *BlockGrid, opts Options, thresh float64) *worker {
	myR, myC := p.g.Coords(r.ID())
	st, g := p.st, p.g
	nd := 0
	for nd < len(bg.ids) && bg.ids[nd] < st.N {
		nd++
	}
	w := &worker{
		r: r, p: p, g: g, st: st, bg: bg, diags: bg.ids[:nd:nd], opts: opts, myR: myR, myC: myC, thresh: thresh,
		lAt: make([]int32, st.N/g.PCol+1), uAt: make([]int32, st.N/g.PRow+1),
		panelDone: make([]bool, st.N), sent: make([]bool, r.Size()),
	}
	for k := myC; k < st.N; k += g.PCol {
		w.lAt[k/g.PCol] = -1
		if li := p.l.group(k, myR); li != nil {
			w.lAt[k/g.PCol] = int32(lookup(bg.ids, st.lID(k, int(li[0]))))
		}
	}
	for k := myR; k < st.N; k += g.PRow {
		w.uAt[k/g.PRow] = -1
		if ui := p.u.group(k, myC); ui != nil {
			w.uAt[k/g.PRow] = int32(lookup(bg.ids, st.uID(k, int(ui[0]))))
		}
	}
	return w
}

// lPanel returns the L blocks of panel K this rank owns, parallel to
// plan.l.group(K, myR); K must lie on the rank's process column. uRow is
// the analogue for block row K's U blocks, K on the process row.
func (w *worker) lPanel(k int) []*Block {
	return w.held(w.lAt[k/w.g.PCol], len(w.p.l.group(k, w.myR)))
}

func (w *worker) uRow(k int) []*Block {
	return w.held(w.uAt[k/w.g.PRow], len(w.p.u.group(k, w.myC)))
}

func (w *worker) held(at int32, n int) []*Block {
	if at < 0 {
		return nil
	}
	return w.bg.blocks[at : int(at)+n : int(at)+n]
}

// diagPos returns the position of supernode k in w.diags; the rank must
// own k's diagonal block.
func (w *worker) diagPos(k int) int { return lookup(w.diags, k) }

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

// doPanel performs steps (1) and (2) of the paper's Figure 8 for
// iteration K as far as this rank participates: factor the diagonal
// block, compute the L panel and U panel, and launch their broadcasts.
func (w *worker) doPanel(k int) {
	if w.panelDone[k] {
		return
	}
	w.panelDone[k] = true
	p, g := w.p, w.g
	kr, kc := k%g.PRow, k%g.PCol
	diagOwner := g.RankOf(kr, kc)
	var diag *Block

	if diagOwner == w.me() {
		diag = w.bg.blocks[w.diagPos(k)]
		tiny, flops, ok := diag.FactorDiag(w.thresh, w.opts.ReplaceTinyPivot)
		if !ok {
			w.zeroPivot = true
			// Continue with a substituted pivot to avoid deadlock; the
			// driver reports the failure.
			diag.FactorDiag(w.thresh, true)
		}
		w.tiny += tiny
		w.r.Compute(flops)
		// Send down the process column to the L-panel owners, then along
		// the process row to the U-panel owners, in block order.
		for _, pr := range p.l.keys(k) {
			if dst := g.RankOf(int(pr), kc); dst != w.me() {
				w.r.Send(dst, tagOf(tagDiagForL, k), diag, diag.Bytes())
			}
		}
		for _, pc := range p.u.keys(k) {
			if dst := g.RankOf(kr, int(pc)); dst != w.me() {
				w.r.Send(dst, tagOf(tagDiagForU, k), diag, diag.Bytes())
			}
		}
	}

	// L panel: the rank at (my row, K mod PCol) owns the L(I,K) blocks of
	// its process row and sends each along the row.
	if li := p.l.group(k, w.myR); w.myC == kc && len(li) > 0 {
		if diag == nil {
			diag = w.r.Recv(diagOwner, tagOf(tagDiagForL, k)).(*Block)
		}
		for _, b := range w.lPanel(k) {
			w.r.Compute(b.SolveUFromRight(diag))
			for c := 0; c < g.PCol; c++ {
				if c != w.myC && p.getsL(k, c) {
					w.r.Send(g.RankOf(w.myR, c), tagOf(tagLPanel, k), b, b.Bytes())
				}
			}
		}
	}

	// U panel: the rank at (K mod PRow, my column) owns the U(K,J) blocks
	// of its process column and sends each down the column.
	if ui := p.u.group(k, w.myC); w.myR == kr && len(ui) > 0 {
		if diag == nil {
			diag = w.r.Recv(diagOwner, tagOf(tagDiagForU, k)).(*Block)
		}
		for _, b := range w.uRow(k) {
			w.r.Compute(b.SolveLFromLeft(diag))
			for r := 0; r < g.PRow; r++ {
				if r != w.myR && p.getsU(k, r) {
					w.r.Send(g.RankOf(r, w.myC), tagOf(tagUPanel, k), b, b.Bytes())
				}
			}
		}
	}
}

// operands returns the L and U blocks of panel K this rank holds for the
// rank-b update — those of its process row and column, owned or received
// from the single source in this row/column in ascending order — with
// their positions in the panel.
func (w *worker) operands(k int) (lBlk []*Block, li []int32, uBlk []*Block, ui []int32) {
	p, g := w.p, w.g
	kr, kc := k%g.PRow, k%g.PCol
	if li = p.l.group(k, w.myR); len(li) > 0 && p.getsL(k, w.myC) {
		if w.myC == kc {
			lBlk = w.lPanel(k)
		} else {
			w.lRecv = w.lRecv[:0]
			for range li {
				w.lRecv = append(w.lRecv, w.r.Recv(g.RankOf(w.myR, kc), tagOf(tagLPanel, k)).(*Block))
			}
			lBlk = w.lRecv
		}
	} else {
		li = nil
	}
	if ui = p.u.group(k, w.myC); len(ui) > 0 && p.getsU(k, w.myR) {
		if w.myR == kr {
			uBlk = w.uRow(k)
		} else {
			w.uRecv = w.uRecv[:0]
			for range ui {
				w.uRecv = append(w.uRecv, w.r.Recv(g.RankOf(kr, w.myC), tagOf(tagUPanel, k)).(*Block))
			}
			uBlk = w.uRecv
		}
	} else {
		ui = nil
	}
	return lBlk, li, uBlk, ui
}

// factorize runs the right-looking distributed LU of the paper's
// Figure 8, with optional pipelining, starting at panel w.start (0 in
// a fresh run, the checkpoint frontier after a restart).
func (w *worker) factorize() {
	st, ns := w.st, w.st.N
	for k := w.start; k < ns; k++ {
		if w.ckptEvery > 0 && k > w.start && (k-w.start)%w.ckptEvery == 0 {
			w.r.Barrier()
			w.onCkpt(k)
		}
		w.doPanel(k)
		lBlk, li, uBlk, ui := w.operands(k)

		// Every pair of held operands updates a block of this rank: (I, J)
		// sits at (I mod PRow, J mod PCol), this rank's coordinates.
		apply := func(a, b int) {
			// A nil target is possible only with relaxed (amalgamated)
			// supernodes: the block-level crossing exists but every
			// elementwise contribution hits structural-zero padding, so no
			// target block was ever allocated.
			if t := w.bg.Target(st.ColL[k][li[a]], st.RowU[k][ui[b]]); t != nil {
				w.r.Compute(t.RankBUpdateInto(lBlk[a], uBlk[b], &w.ws))
			}
		}

		// Pipelined: update block column K+1 and block row K+1 first, then
		// factor panel K+1 immediately — this shortens the critical path of
		// step (1), exactly the paper's pipelined organization. Block lists
		// ascend, so the operands in block row/column K+1, where held, are
		// the first of each (index 0).
		a1, b1 := -1, -1
		if w.opts.Pipeline && k+1 < ns {
			if len(li) > 0 && li[0] == 0 && st.ColL[k][0] == k+1 {
				a1 = 0
			}
			if len(ui) > 0 && ui[0] == 0 && st.RowU[k][0] == k+1 {
				b1 = 0
				for a := range lBlk {
					apply(a, b1)
				}
			}
			if a1 == 0 {
				for b := range uBlk {
					if b != b1 { // (k+1,k+1) was applied by the loop above
						apply(a1, b)
					}
				}
			}
			w.doPanel(k + 1)
		}
		for a := range lBlk {
			if a == a1 {
				continue
			}
			for b := range uBlk {
				if b != b1 {
					apply(a, b)
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
