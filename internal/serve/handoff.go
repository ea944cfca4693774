package serve

import (
	"fmt"

	"gesp/internal/core"
)

// Cache handoff: the API a fleet router uses to move cached work
// between shards instead of cold-restarting it.
//
//   - Drain gracefully shuts a shard down and exports everything its
//     caches hold, so a rebalance can hand entries to their new owners;
//   - ImportFactor / ImportSymbolic adopt an exported entry on the
//     destination, skipping re-analysis and re-factorization entirely;
//   - ExportSymbolic peeks a single analysis donor so a replica shard
//     can build its own numeric factors without redoing MC64/ordering/
//     symbolic analysis (the same donor-sharing contract
//     core.NewWithSymbolic already has inside one service).
//
// A factor entry's solver is moved, never shared: the source must have
// stopped solving on it (Drain guarantees this — every cutter has
// exited before the export is assembled) because core.Solver solves
// are not concurrency-safe on one instance. Symbolic donors, by
// contrast, are read-only at factor time and may be shared freely.

// ExportedSymbolic is one pattern's analysis donor leaving a shard.
type ExportedSymbolic struct {
	Pattern uint64
	Donor   *core.Solver
}

// ExportedFactor is one numeric factorization leaving a shard.
type ExportedFactor struct {
	Key    FactorKey
	N      int
	Solver *core.Solver
}

// Export is a drained shard's entire cache contents, in LRU order
// (most recently used first) so a capacity-limited importer keeps the
// hottest entries when its own budgets force eviction.
type Export struct {
	Symbolic []ExportedSymbolic
	Factors  []ExportedFactor
}

// Drain closes the service gracefully (queued solves finish, cutter
// goroutines exit) and strips its caches, returning every symbolic
// analysis and factorization for adoption elsewhere. After Drain the
// service is closed and empty; the returned solvers are exclusively
// the caller's.
func (s *Service) Drain() Export {
	s.Close()
	syms, facs := s.c.exportAll()
	exp := Export{Symbolic: syms}
	for _, e := range facs {
		exp.Factors = append(exp.Factors, ExportedFactor{
			Key: e.key, N: e.solver.Stats().N, Solver: e.solver,
		})
	}
	return exp
}

// ExportSymbolic returns the cached analysis donor for a pattern, or
// nil. The donor stays cached here too — symbolic donors are read-only
// at factor time and safe to share across services.
func (s *Service) ExportSymbolic(pattern uint64) *core.Solver {
	return s.c.lookupSym(pattern)
}

// ImportSymbolic adopts an analysis donor under the given pattern
// fingerprint; a pattern already resident keeps its incumbent. Imports
// count separately from misses — no analysis ran here.
func (s *Service) ImportSymbolic(pattern uint64, donor *core.Solver) error {
	s.admit.RLock()
	defer s.admit.RUnlock()
	if s.closed.Load() {
		return ErrClosed
	}
	if donor == nil {
		return fmt.Errorf("serve: ImportSymbolic: nil donor")
	}
	s.m.symImports.Add(1)
	s.c.insertSym(pattern, donor)
	return nil
}

// ImportFactor adopts a factorization exported from another shard: the
// solver is wrapped in a fresh batcher bound to this service's
// admission policy and inserted into the factor cache (normal LRU and
// byte budgets apply). No numeric work runs — the core.Stats phase
// counters of the adopted solver are unchanged, which is how handoff
// tests prove a rebalance re-factored nothing. The caller must not
// keep solving on the exported solver; ownership moves here.
func (s *Service) ImportFactor(f ExportedFactor) (Handle, error) {
	s.admit.RLock()
	defer s.admit.RUnlock()
	if s.closed.Load() {
		return Handle{}, ErrClosed
	}
	if f.Solver == nil {
		return Handle{}, fmt.Errorf("serve: ImportFactor: nil solver")
	}
	s.m.facImports.Add(1)
	e := &facEntry{
		key:    f.Key,
		solver: f.Solver,
		bat:    newBatcher(f.Solver, s.cfg.MaxBatch, s.cfg.MaxDelay, s.cfg.QueueCap, &s.m),
		bytes:  factorBytes(f.Solver.Stats()),
	}
	s.c.insertFactor(e)
	return Handle{Key: f.Key, N: f.Solver.Stats().N}, nil
}
