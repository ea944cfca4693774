// Package sched implements the shared-memory parallel supernodal GESP
// factorization. Because static pivoting fixes the elimination
// structure before any numerics run, the complete task dependency DAG —
// which panel factors, panel solves and Schur updates exist, and which
// must precede which — is derived once from the symbolic result, then
// executed by a pool of workers with atomic dependency counters: a task
// becomes ready the instant its last predecessor retires, with no
// global barriers. This is the shared-memory counterpart of the
// simulated distributed engine (internal/mpisim): both exploit the
// same property of GESP, a schedule knowable a priori.
//
// The task graph per supernode K:
//
//	factor(K)     — dense LU of the diagonal block K (no pivoting);
//	                waits for every Schur update targeting (K,K).
//	lsolve(K,I)   — L(I,K) = A(I,K)·U(K,K)⁻¹ for each off-diagonal L
//	                block; waits for factor(K) and updates to (I,K).
//	usolve(K,J)   — U(K,J) = L(K,K)⁻¹·A(K,J); waits for factor(K) and
//	                updates to (K,J).
//	urow(K)       — zero-work milestone: all usolve(K,·) done.
//	update(K,I)   — target(I,J) -= L(I,K)·U(K,J) for every J of panel K
//	                (one task per L-block row, fused across targets for
//	                scheduling granularity); waits for lsolve(K,I) and
//	                urow(K).
//
// Concurrent update tasks from different panels K may race on the same
// target block; a per-target-block mutex (keyed by the grid's dense
// block id) serializes them. Each worker owns a dist.UpdateScratch so
// the update hot path never allocates. Ready factor tasks are seeded
// deepest-subtree-first using the supernodal elimination forest
// (symbolic.SupHeights), approximating critical-path-first scheduling.
package sched

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gesp/internal/check"
	"gesp/internal/dist"
	"gesp/internal/lu"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

type taskKind uint8

const (
	taskFactor taskKind = iota
	taskLSolve
	taskUSolve
	taskURow // milestone: every usolve of the panel retired
	taskUpdate
)

// updTarget is one destination of a fused row-update task: the U
// operand index within the panel and the target block with its lock id.
type updTarget struct {
	ui  int
	tgt *dist.Block
	id  int
}

// task is one node of the dependency DAG. deps counts outstanding
// predecessors; the worker that decrements it to zero enqueues the task.
type task struct {
	kind    taskKind
	k       int // panel (supernode) index
	idx     int // L/U block index within panel k
	deps    atomic.Int32
	succ    []*task
	targets []updTarget // update tasks only
}

// succArena carves the tasks' successor lists from shared chunks
// instead of one heap allocation per task: the DAG build touches every
// block of the static structure, and per-task slice headers plus
// allocator bookkeeping dominated its profile. Carves are three-index
// slices (len 0, fixed cap), so an append past the carve can never
// bleed into a neighbour; a full chunk is simply replaced by a larger
// one (previous carves keep the old backing array alive).
type succArena struct {
	buf []*task
	off int
}

func (a *succArena) carve(n int) []*task {
	if a.off+n > len(a.buf) {
		a.buf = make([]*task, 2*len(a.buf)+n)
		a.off = 0
	}
	s := a.buf[a.off : a.off : a.off+n]
	a.off += n
	return s
}

// graph is the fully materialized task DAG over a block grid.
type graph struct {
	st      *dist.Structure
	grid    *dist.BlockGrid
	factor  []*task
	lsolve  [][]*task
	usolve  [][]*task
	total   int
	initial []*task // zero-dependency tasks, critical path first
}

// consumer returns the task that reads block (i, j) as its own input:
// the factor of a diagonal block, or the panel solve of an off-diagonal
// one. Every update targeting (i, j) precedes it.
func (g *graph) consumer(i, j int) *task {
	switch {
	case i == j:
		return g.factor[i]
	case i > j:
		lbs := g.st.LBlocks[j]
		p := sort.Search(len(lbs), func(q int) bool { return lbs[q].I >= i })
		if p < len(lbs) && lbs[p].I == i {
			return g.lsolve[j][p]
		}
	default:
		ubs := g.st.UBlocks[i]
		p := sort.Search(len(ubs), func(q int) bool { return ubs[q].J >= j })
		if p < len(ubs) && ubs[p].J == j {
			return g.usolve[i][p]
		}
	}
	panic("sched: update targets a block outside the static structure")
}

// buildGraph derives the task DAG from the static block structure.
func buildGraph(st *dist.Structure, grid *dist.BlockGrid, sym *symbolic.Result) *graph {
	ns := st.N
	g := &graph{
		st:     st,
		grid:   grid,
		factor: make([]*task, ns),
		lsolve: make([][]*task, ns),
		usolve: make([][]*task, ns),
	}
	// Slab-allocate the fixed-population task kinds: one factor per
	// supernode, one solve per off-diagonal block.
	nL, nU := 0, 0
	for k := 0; k < ns; k++ {
		nL += len(st.LBlocks[k])
		nU += len(st.UBlocks[k])
	}
	slab := make([]task, ns+nL+nU)
	next := 0
	alloc := func(kind taskKind, k, idx int) *task {
		t := &slab[next]
		next++
		t.kind, t.k, t.idx = kind, k, idx
		return t
	}
	// Successor lists come from the shared arena, seeded with the exact
	// fixed-population demand (factor fan-out plus one slot per panel
	// solve); update-task lists carve from the same chunks as they are
	// sized below.
	sa := succArena{buf: make([]*task, 2*(nL+nU)+ns)}
	for k := 0; k < ns; k++ {
		g.factor[k] = alloc(taskFactor, k, 0)
		g.factor[k].succ = sa.carve(len(st.LBlocks[k]) + len(st.UBlocks[k]))
		g.lsolve[k] = make([]*task, len(st.LBlocks[k]))
		for i := range st.LBlocks[k] {
			t := alloc(taskLSolve, k, i)
			t.deps.Store(1)      // factor(k)
			t.succ = sa.carve(1) // at most its fused update task
			g.lsolve[k][i] = t
			g.factor[k].succ = append(g.factor[k].succ, t)
		}
		g.usolve[k] = make([]*task, len(st.UBlocks[k]))
		for j := range st.UBlocks[k] {
			t := alloc(taskUSolve, k, j)
			t.deps.Store(1)
			t.succ = sa.carve(1) // at most the urow milestone
			g.usolve[k][j] = t
			g.factor[k].succ = append(g.factor[k].succ, t)
		}
	}
	g.total = ns + nL + nU
	// Update tasks, fused per L-block row: update(k, li) applies the
	// whole crossing L(I,K)·U(K,·) once lsolve(k,li) and every usolve of
	// the panel (the urow milestone) are done. Fusing keeps the task
	// count — and so the scheduling overhead — proportional to the
	// number of blocks, not to the number of block pairs. Targets absent
	// from the static fill carry only structural-zero contributions from
	// relaxed-supernode padding and are dropped at build time. Tasks and
	// their target lists live in shared slabs to keep the build off the
	// allocator's hot path.
	nMile, nUpd := 0, 0
	for k := 0; k < ns; k++ {
		if len(st.LBlocks[k]) > 0 && len(st.UBlocks[k]) > 0 {
			nMile++
			nUpd += len(st.LBlocks[k])
		}
	}
	updSlab := make([]task, nMile+nUpd)
	nextUpd := 0
	tgtSlab := make([]updTarget, 0, nUpd*4)
	for k := 0; k < ns; k++ {
		if len(st.LBlocks[k]) == 0 || len(st.UBlocks[k]) == 0 {
			continue
		}
		urow := &updSlab[nextUpd]
		nextUpd++
		urow.kind, urow.k = taskURow, k
		urow.deps.Store(int32(len(g.usolve[k])))
		urow.succ = sa.carve(len(st.LBlocks[k]))
		for _, ut := range g.usolve[k] {
			ut.succ = append(ut.succ, urow)
		}
		g.total++
		for li, lb := range st.LBlocks[k] {
			base := len(tgtSlab)
			for ui, ub := range st.UBlocks[k] {
				if tgt, id := grid.Target(lb.I, ub.J); tgt != nil {
					tgtSlab = append(tgtSlab, updTarget{ui: ui, tgt: tgt, id: id})
				}
			}
			targets := tgtSlab[base:len(tgtSlab):len(tgtSlab)]
			if len(targets) == 0 {
				continue
			}
			t := &updSlab[nextUpd]
			nextUpd++
			t.kind, t.k, t.idx, t.targets = taskUpdate, k, li, targets
			t.deps.Store(2) // lsolve(k,li) and urow(k)
			t.succ = sa.carve(len(targets))
			g.lsolve[k][li].succ = append(g.lsolve[k][li].succ, t)
			urow.succ = append(urow.succ, t)
			for _, ut := range targets {
				cons := g.consumer(lb.I, st.UBlocks[k][ut.ui].J)
				cons.deps.Add(1)
				t.succ = append(t.succ, cons)
			}
			g.total++
		}
	}
	// Seed: every task whose dependency count is already zero (factor
	// tasks of supernodes receiving no updates — the etree leaves),
	// ordered deepest subtree first so long chains start early.
	heights := sym.SupHeights()
	for k := 0; k < ns; k++ {
		if g.factor[k].deps.Load() == 0 {
			g.initial = append(g.initial, g.factor[k])
		}
	}
	sort.SliceStable(g.initial, func(a, b int) bool {
		return heights[g.initial[a].k] > heights[g.initial[b].k]
	})
	if check.Enabled {
		check.Must(g.audit())
	}
	return g
}

// Factorize runs the blocked right-looking GESP factorization over the
// static structure on a pool of workers (0 or negative means
// runtime.GOMAXPROCS). The schedule is the dependency DAG itself rather
// than the serial panel order, so independent subtrees of the
// supernodal elimination forest factor concurrently; the numeric result
// matches dist.FactorizeBlocked up to the rounding reordering of
// commuted Schur-update sums. Returns the factored blocks and the
// number of replaced tiny pivots.
func Factorize(a *sparse.CSC, sym *symbolic.Result, opts lu.Options, workers int) (*dist.BlockGrid, int, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := dist.BuildStructure(sym)
	grid := dist.NewGrid(st, nil)
	grid.Scatter(a)
	if st.N == 0 {
		return grid, 0, nil
	}
	thresh := lu.TinyPivotThreshold(a.Norm1(), opts.Threshold)
	g := buildGraph(st, grid, sym)

	// The queue is buffered to hold every task, so sends never block and
	// the worker loop is a plain channel receive. On a zero-pivot failure
	// the abort flag makes the remaining tasks no-ops: they still flow
	// through the dependency bookkeeping, so `remaining` reaches zero and
	// the queue closes on every path.
	queue := make(chan *task, g.total)
	var closeQueue sync.Once
	var remaining atomic.Int64
	remaining.Store(int64(g.total))
	var tiny atomic.Int64
	var aborted atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		aborted.Store(true)
	}
	locks := make([]sync.Mutex, grid.NumBlocks())

	run := func(t *task, ws *dist.UpdateScratch) {
		if !aborted.Load() {
			switch t.kind {
			case taskFactor:
				diag := grid.Diag[t.k]
				nt, _, ok := diag.FactorDiag(thresh, opts.ReplaceTinyPivot)
				if !ok {
					fail(fmt.Errorf("sched: supernode %d: %w", t.k, lu.ErrZeroPivot))
				} else if nt > 0 {
					tiny.Add(int64(nt))
				}
			case taskLSolve:
				grid.L[t.k][t.idx].SolveUFromRight(grid.Diag[t.k])
			case taskUSolve:
				grid.U[t.k][t.idx].SolveLFromLeft(grid.Diag[t.k])
			case taskURow:
				// Milestone: bookkeeping only.
			case taskUpdate:
				l := grid.L[t.k][t.idx]
				for _, ut := range t.targets {
					u := grid.U[t.k][ut.ui]
					locks[ut.id].Lock()
					ut.tgt.RankBUpdateInto(l, u, ws)
					locks[ut.id].Unlock()
				}
			}
		}
		for _, s := range t.succ {
			if s.deps.Add(-1) == 0 {
				queue <- s
			}
		}
		if remaining.Add(-1) == 0 {
			closeQueue.Do(func() { close(queue) })
		}
	}

	for _, t := range g.initial {
		queue <- t
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ws dist.UpdateScratch
			for t := range queue {
				run(t, &ws)
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		return nil, int(tiny.Load()), firstErr
	}
	return grid, int(tiny.Load()), nil
}
