package serve

import (
	"container/list"
	"sync"

	"gesp/internal/core"
)

// FactorKey identifies a numeric factorization: the structural
// fingerprint of the submitted matrix plus the fingerprint of its
// values. Matrices agreeing on both are the same system for serving
// purposes (up to the ~2⁻⁶⁴ hash-collision odds PatternHash documents).
type FactorKey struct {
	Pattern uint64
	Values  uint64
}

// symEntry is one pattern's cached analysis: an analysis-only
// core.Solver (core.NewAnalysis) acting as the donor for
// core.NewWithSymbolic. It holds no numeric factors, so a symbolic
// entry is cheap to retain even after every factorization sharing it
// has been evicted.
type symEntry struct {
	donor *core.Solver
	elem  *list.Element // position in cache.symLRU; Value is the pattern hash
}

// facEntry is one cached numeric factorization plus its RHS batcher.
// Eviction only unlinks the entry from the cache; requests already
// holding it keep solving, the batcher goroutine drains its queue and
// exits, and the garbage collector reclaims the factors afterwards.
type facEntry struct {
	key   FactorKey
	bat   *batcher
	bytes int64
	elem  *list.Element // position in cache.facLRU; Value is the FactorKey
}

// cache is the two-level store behind the service: symbolic analyses
// keyed by pattern fingerprint, numeric factors keyed by FactorKey. Both
// levels are LRU; the numeric level additionally enforces a byte budget
// estimated from factor fill. One mutex guards both levels — every
// operation is O(1) map/list work, never a factorization.
type cache struct {
	mu sync.Mutex
	m  *Metrics

	maxSym   int
	maxFac   int
	maxBytes int64

	//gesp:guardedby:mu
	sym map[uint64]*symEntry
	//gesp:guardedby:mu
	symLRU *list.List
	//gesp:guardedby:mu
	fac map[FactorKey]*facEntry
	//gesp:guardedby:mu
	facLRU *list.List
	//gesp:guardedby:mu
	bytes int64
}

func newCache(maxSym, maxFac int, maxBytes int64, m *Metrics) *cache {
	return &cache{
		m:        m,
		maxSym:   maxSym,
		maxFac:   maxFac,
		maxBytes: maxBytes,
		sym:      make(map[uint64]*symEntry),
		symLRU:   list.New(),
		fac:      make(map[FactorKey]*facEntry),
		facLRU:   list.New(),
	}
}

// lookupFactor returns the cached factorization for key, refreshing its
// LRU position, or nil.
func (c *cache) lookupFactor(key FactorKey) *facEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.fac[key]
	if !ok {
		return nil
	}
	c.facLRU.MoveToFront(e.elem)
	return e
}

// insertFactor adds e and evicts least-recently-used factors until the
// count and byte budgets hold again. The new entry itself is never
// evicted, even if it alone exceeds the byte budget — the caller just
// factored it to serve a live request.
func (c *cache) insertFactor(e *facEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.fac[e.key]; ok {
		// A racing build already inserted this key; keep the incumbent.
		c.facLRU.MoveToFront(old.elem)
		return
	}
	e.elem = c.facLRU.PushFront(e.key)
	c.fac[e.key] = e
	c.bytes += e.bytes
	for (c.facLRU.Len() > c.maxFac || c.bytes > c.maxBytes) && c.facLRU.Len() > 1 {
		back := c.facLRU.Back()
		if back == e.elem {
			break
		}
		victim := c.fac[back.Value.(FactorKey)]
		c.facLRU.Remove(back)
		delete(c.fac, victim.key)
		c.bytes -= victim.bytes
		c.m.facEvicts.Add(1)
	}
}

// lookupSym returns the cached analysis donor for a pattern, refreshing
// its LRU position, or nil.
func (c *cache) lookupSym(pattern uint64) *core.Solver {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.sym[pattern]
	if !ok {
		return nil
	}
	c.symLRU.MoveToFront(e.elem)
	return e.donor
}

// insertSym adds a pattern's analysis donor, evicting the
// least-recently-used analyses beyond the count cap.
func (c *cache) insertSym(pattern uint64, donor *core.Solver) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.sym[pattern]; ok {
		c.symLRU.MoveToFront(old.elem)
		return
	}
	e := &symEntry{donor: donor}
	e.elem = c.symLRU.PushFront(pattern)
	c.sym[pattern] = e
	for c.symLRU.Len() > c.maxSym && c.symLRU.Len() > 1 {
		back := c.symLRU.Back()
		c.symLRU.Remove(back)
		delete(c.sym, back.Value.(uint64))
		c.m.symEvicts.Add(1)
	}
}

// factorEntries snapshots every resident factor entry in LRU order
// (most recent first) — the deterministic iteration Close needs (the
// map's range order would leak).
func (c *cache) factorEntries() []*facEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*facEntry, 0, c.facLRU.Len())
	for el := c.facLRU.Front(); el != nil; el = el.Next() {
		out = append(out, c.fac[el.Value.(FactorKey)])
	}
	return out
}

// occupancy reports entry counts and factor bytes for stats snapshots.
func (c *cache) occupancy() (symEntries, facEntries int, facBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.symLRU.Len(), c.facLRU.Len(), c.bytes
}

// factorBytes estimates the resident cost of one cached factorization:
// the L/U values (8 bytes each over the fill), the values of the
// permuted input (8 bytes per nonzero), and the per-row bookkeeping
// slices. Indices — of the static structure and of the permuted input —
// are shared with the symbolic donor and not charged here.
func factorBytes(st core.Stats) int64 {
	return 8*int64(st.NnzLU) + 8*int64(st.NnzA) + 48*int64(st.N)
}
