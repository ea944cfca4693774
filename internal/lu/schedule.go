package lu

import (
	"container/heap"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"gesp/internal/check"
	"gesp/internal/sparse"
	"gesp/internal/symbolic"
)

// Schedule is a static parallel schedule of the left-looking
// factorization in one structure, computed once per analysis: static
// pivoting fixes every dependency before any numerics run.
//
// The dependencies come from the elimination tree of A+Aᵀ: every row k of
// U(:,j) is a descendant of j (symbolic.EtreeAPlusAT), so a subtree can
// be factored with nothing from outside it. The tree is split
// Geist–Ng-style into whole subtrees, dealt to the workers largest
// first, and the top — the ancestors of those subtrees, where AMD trees
// keep most of their work — which the workers share as a pipeline.
type Schedule struct {
	Sym *symbolic.Result
	// Own[w] lists the columns worker w factors first, on its own: whole
	// subtrees of the tree, ascending, so each column finds every column
	// it reads already factored by the same worker.
	Own [][]int
	// Top lists the remaining columns, ascending. A worker that is done
	// with its own claims them one at a time from a shared counter and
	// applies each supernode run as far as its columns are factored,
	// waiting where one is not. Claiming in ascending order guarantees
	// progress: the lowest unfinished claimed column waits only on lower
	// ones.
	Top []int
	// TopShare is the top's share of the static column cost.
	TopShare float64
}

// NewSchedule builds the schedule for workers goroutines (at least one)
// from the pattern of a, the matrix sym was computed from.
//
// A column's cost is its multiply-adds plus one per entry it stores,
// read off the static structure. Starting from the roots, the most
// expensive subtree's root moves into the top while that can lower the
// estimated finish time top + max(largest subtree, remaining/workers);
// the split with the lowest estimate wins, and its subtrees are dealt to
// the least-loaded worker, largest first.
func NewSchedule(a *sparse.CSC, sym *symbolic.Result, workers int) *Schedule {
	n := sym.N
	workers = max(workers, 1)
	parent := symbolic.EtreeAPlusAT(a)
	if check.Enabled {
		check.Must(sym.CheckDependencyTree(parent))
	}
	cost := make([]int64, n)
	sub := make([]int64, n) // cost of the subtree rooted at j
	head, next := make([]int, n), make([]int, n)
	var total int64
	for j := 0; j < n; j++ {
		c := int64(sym.LPtr[j+1]-sym.LPtr[j]) + 1
		for _, k := range sym.UColRows(j) {
			if k < j {
				c += int64(sym.LPtr[k+1]-sym.LPtr[k]) + 1
			}
		}
		cost[j], total = c, total+c
		sub[j] += c
		if p := parent[j]; p != -1 {
			sub[p] += sub[j]
		}
		head[j] = -1
	}
	for j := n - 1; j >= 0; j-- { // children lists, ascending
		if p := parent[j]; p != -1 {
			next[j], head[p] = head[p], j
		}
	}

	// The split: pop the most expensive subtree, push its children. No
	// split can beat the best once the top alone costs as much.
	h := &subtrees{cost: sub}
	for j := 0; j < n; j++ {
		if parent[j] == -1 {
			h.roots = append(h.roots, j)
		}
	}
	heap.Init(h)
	estimate := func(top, rest int64) int64 {
		largest := int64(0)
		if h.Len() > 0 {
			largest = sub[h.roots[0]]
		}
		return top + max(largest, (rest+int64(workers)-1)/int64(workers))
	}
	top, rest := int64(0), total
	best, split := estimate(top, rest), 0
	var popped []int
	for h.Len() > 0 && top < best {
		r := heap.Pop(h).(int)
		popped = append(popped, r)
		top, rest = top+cost[r], rest-cost[r]
		for c := head[r]; c != -1; c = next[c] {
			heap.Push(h, c)
		}
		if e := estimate(top, rest); e < best {
			best, split = e, len(popped)
		}
	}
	inTop := make([]bool, n)
	top = 0
	for _, r := range popped[:split] {
		inTop[r] = true
		top += cost[r]
	}

	// Deal the subtrees largest first, each to the least-loaded worker.
	var roots []int
	for j := 0; j < n; j++ {
		if !inTop[j] && (parent[j] == -1 || inTop[parent[j]]) {
			roots = append(roots, j)
		}
	}
	sort.SliceStable(roots, func(x, y int) bool { return sub[roots[x]] > sub[roots[y]] })
	load := make([]int64, workers)
	owner := make([]int, n)
	for _, r := range roots {
		w := 0
		for v := range load {
			if load[v] < load[w] {
				w = v
			}
		}
		owner[r], load[w] = w, load[w]+sub[r]
	}
	sc := &Schedule{Sym: sym, Own: make([][]int, workers)}
	for j := n - 1; j >= 0; j-- { // parents first: a subtree inherits its root's worker
		if p := parent[j]; !inTop[j] && p != -1 && !inTop[p] {
			owner[j] = owner[p]
		}
	}
	for j := 0; j < n; j++ {
		if inTop[j] {
			sc.Top = append(sc.Top, j)
		} else {
			sc.Own[owner[j]] = append(sc.Own[owner[j]], j)
		}
	}
	if total > 0 {
		sc.TopShare = float64(top) / float64(total)
	}
	if check.Enabled {
		check.Must(sc.Check())
	}
	return sc
}

// subtrees is a max-heap of subtree roots by subtree cost, ties to the
// lower column.
type subtrees struct {
	roots []int
	cost  []int64
}

func (h *subtrees) Len() int { return len(h.roots) }
func (h *subtrees) Less(x, y int) bool {
	cx, cy := h.cost[h.roots[x]], h.cost[h.roots[y]]
	return cx > cy || (cx == cy && h.roots[x] < h.roots[y])
}
func (h *subtrees) Swap(x, y int) { h.roots[x], h.roots[y] = h.roots[y], h.roots[x] }
func (h *subtrees) Push(r any)    { h.roots = append(h.roots, r.(int)) }
func (h *subtrees) Pop() any {
	r := h.roots[len(h.roots)-1]
	h.roots = h.roots[:len(h.roots)-1]
	return r
}

// Check validates what Factorize relies on: every column is assigned
// exactly once, every list is ascending, and every row k < j of U(:,j)
// for a column j a worker owns is owned by the same worker — so it
// lies in j's own subtree and is factored before j without a wait.
func (sc *Schedule) Check() error {
	n := sc.Sym.N
	owner := make([]int, n)
	for j := range owner {
		owner[j] = -1
	}
	top := len(sc.Own)
	for w, list := range append(sc.Own[:top:top], sc.Top) {
		name := fmt.Sprintf("lu: schedule: worker %d", w)
		if w == top {
			name = "lu: schedule: top"
		}
		if err := check.StrictlyIncreasingInBounds(name, list, 0, n); err != nil {
			return err
		}
		for _, j := range list {
			if owner[j] != -1 {
				return fmt.Errorf("lu: schedule assigns column %d twice", j)
			}
			owner[j] = w
		}
	}
	for j, w := range owner {
		if w == -1 {
			return fmt.Errorf("lu: schedule leaves column %d unassigned", j)
		}
	}
	for w, list := range sc.Own {
		for _, j := range list {
			for _, k := range sc.Sym.UColRows(j) {
				if owner[k] != w {
					return fmt.Errorf("lu: schedule: column %d of worker %d reads column %d outside its subtree", j, w, k)
				}
			}
		}
	}
	return nil
}

// Factorize runs the GESP numeric factorization of a (the matrix the
// schedule was built from, or any with its pattern) on len(Own)
// goroutines. Each column runs the one column step, with the same
// operations in the same order as in Factorize, so the factors, their
// PivotMods (merged in column order) and a failure — the lowest failing
// column's *ZeroPivotError — are bit for bit those of Factorize,
// whatever the number of workers.
func (sc *Schedule) Factorize(a *sparse.CSC, opts Options) (*Factors, error) {
	f, lead, err := newFactors(a, sc.Sym, opts)
	if err != nil {
		return nil, err
	}
	p := &pipeline{sc: sc, f: f, ready: make([]atomic.Bool, sc.Sym.N)}
	p.failed.Store(int64(sc.Sym.N))
	p.wake.L = &p.mu
	workers := make([]*worker, len(sc.Own))
	var wg sync.WaitGroup
	for i := range workers {
		wk := lead
		if i > 0 {
			wk = &worker{a: a, opts: opts, thresh: lead.thresh, w: make([]float64, sc.Sym.N)}
		}
		workers[i] = wk
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.run(wk, sc.Own[i])
		}()
	}
	wg.Wait()
	if p.err != nil {
		return nil, p.err
	}
	var mods []PivotMod
	for _, wk := range workers {
		mods = append(mods, wk.mods...)
	}
	sort.Slice(mods, func(x, y int) bool { return mods[x].Col < mods[y].Col })
	f.record(mods)
	return f, nil
}

// pipeline is the state the workers of one Factorize share.
type pipeline struct {
	sc    *Schedule
	f     *Factors
	ready []atomic.Bool // ready[k]: column k is factored
	// failed is the lowest column whose pivot failed so far (N if none):
	// a wait for a column above it gives up, the factorization is lost.
	failed   atomic.Int64
	next     atomic.Int64 // next index of Top to claim
	sleepers atomic.Int32 // workers parked in sleep
	mu       sync.Mutex   // guards err, lowering failed, and wake
	wake     sync.Cond    // broadcast when a column is published or fails
	err      *ZeroPivotError
}

// run is one worker: its own columns without waiting, then top columns
// as claimed. A failed own column sends it straight to the top, where a
// lower column may still fail and must be the one reported.
func (p *pipeline) run(wk *worker, own []int) {
	for _, j := range own {
		if !p.column(wk, j) {
			break
		}
	}
	wk.top = p
	for {
		t := int(p.next.Add(1)) - 1
		if t >= len(p.sc.Top) || !p.column(wk, p.sc.Top[t]) {
			return
		}
	}
}

// column factors column j and publishes it. It reports false — take no
// further column from this list — when a column below j has failed
// (every later column of the list is higher still) or j itself fails.
func (p *pipeline) column(wk *worker, j int) bool {
	if int64(j) > p.failed.Load() {
		return false
	}
	err := p.f.step(wk, j)
	if err == nil {
		p.ready[j].Store(true)
		if p.sleepers.Load() > 0 {
			p.mu.Lock()
			p.wake.Broadcast()
			p.mu.Unlock()
		}
		return true
	}
	if zp, ok := err.(*ZeroPivotError); ok {
		p.mu.Lock()
		if p.err == nil || zp.Col < p.err.Col {
			p.err = zp
			p.failed.Store(int64(zp.Col))
		}
		p.wake.Broadcast()
		p.mu.Unlock()
	}
	return false
}

// A wait polls a flag spinWaits times, then yields the processor
// between polls up to yieldWaits, then parks: a waiter that keeps its
// processor starves the worker it waits for whenever the machine runs
// both on one core.
const (
	spinWaits  = 64
	yieldWaits = 256
)

// await waits until column k is factored and returns the last column of
// the run k..e before the first one still in progress: the part of the
// run that can be applied now. It gives up, returning k-1, once a column
// below j has failed — the factorization is lost, and the column waited
// for may never come.
func (p *pipeline) await(k, e, j int) int {
	for spin := 0; !p.ready[k].Load(); spin++ {
		switch {
		case int64(j) > p.failed.Load():
			return k - 1
		case spin >= yieldWaits:
			p.sleep(k, j)
		case spin >= spinWaits:
			runtime.Gosched() //gesp:allocok yields the processor while a column it reads is still being factored; allocates nothing
		}
	}
	for c := k + 1; c <= e; c++ {
		if !p.ready[c].Load() {
			return c - 1
		}
	}
	return e
}

// sleep parks until column k is published or a column below j fails.
// Publishers broadcast only while someone sleeps; a sleeper counts
// itself before its last look at the flag, so no broadcast is missed.
func (p *pipeline) sleep(k, j int) {
	p.sleepers.Add(1)
	p.mu.Lock()
	for !p.ready[k].Load() && int64(j) <= p.failed.Load() {
		p.wake.Wait()
	}
	p.mu.Unlock()
	p.sleepers.Add(-1)
}
