// Package serve is the solve service that turns static pivoting's
// structural guarantee into throughput. GESP's elimination structure is
// fixed before any numerics (the paper's whole point), so:
//
//   - symbolic analysis — equilibration targets, MC64 row permutation,
//     fill-reducing ordering, supernodal structure — is reusable across
//     every matrix with the same sparsity pattern, and
//   - numeric factors are reusable across every right-hand side.
//
// The service exploits both with a two-level cache (symbolic analyses
// keyed by sparse.PatternHash, numeric factors keyed by pattern + value
// fingerprints, LRU with a memory budget, singleflight so concurrent
// misses factor once) and an RHS batcher per factor that coalesces
// queued solves into one batched solve (core.Solver.SolveBatch: sweeps
// and refinement on tiles of eight right-hand sides, each factor and
// matrix entry loaded once per tile). Bounded queues shed load with
// explicit errors instead of blocking. cmd/gesp-serve wraps this in an
// HTTP JSON API and a closed-loop load generator.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"gesp/internal/core"
	"gesp/internal/resilience"
	"gesp/internal/sparse"
)

// Service errors. Handlers map these to retryable status codes;
// anything else is a caller or numerical error.
var (
	// ErrOverloaded means the target factor's solve queue was full; the
	// request was shed without queueing. Retry with backoff. The error
	// actually returned is an *OverloadedError carrying the observed
	// queue depth and a retry-after hint; errors.Is against this
	// sentinel matches it.
	ErrOverloaded = errors.New("serve: overloaded, solve queue full")
	// ErrHandleExpired means the handle's factorization is not resident
	// — either it was evicted under memory pressure or it was never
	// submitted here. Resubmit the matrix to re-factor.
	ErrHandleExpired = errors.New("serve: handle not resident (evicted or unknown); resubmit the matrix")
	// ErrClosed means the service has been shut down.
	ErrClosed = errors.New("serve: service closed")
)

// OverloadedError is the typed overload rejection: the request was shed
// because its factor's solve queue held QueueDepth requests already.
// RetryAfter is a backoff hint — roughly one admission window, the
// earliest the queue can plausibly have drained a batch. Overload is a
// per-shard condition, so a fleet router retries the request on a
// replica, or on this shard once the hint has passed.
//
// errors.Is(err, ErrOverloaded) matches an *OverloadedError, so callers
// that only care about the class keep working unchanged.
type OverloadedError struct {
	QueueDepth int
	RetryAfter time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serve: overloaded, solve queue full (depth %d, retry after %v)",
		e.QueueDepth, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) true for the typed error.
func (e *OverloadedError) Is(target error) bool { return target == ErrOverloaded }

// Config tunes the service. DefaultConfig is the intended starting
// point; New fills any zero numeric field with the default.
type Config struct {
	// Options is the GESP pipeline configuration used for every
	// analysis and factorization the service performs.
	Options core.Options
	// MaxBatch caps how many right-hand sides one triangular sweep
	// carries; a batch is cut early once this many are queued.
	MaxBatch int
	// MaxDelay is the longest a queued solve waits for its batch to
	// fill before the batch is cut anyway. Zero cuts immediately
	// (batching only under concurrent arrivals).
	MaxDelay time.Duration
	// QueueCap bounds each factor's solve queue; requests beyond it are
	// shed with ErrOverloaded.
	QueueCap int
	// MaxFactors and MaxFactorBytes bound the numeric cache (entry
	// count and estimated resident bytes); least-recently-used factors
	// are evicted first.
	MaxFactors     int
	MaxFactorBytes int64
	// MaxSymbolic bounds the symbolic (pattern) cache entry count.
	MaxSymbolic int
	// SolveTimeout is the per-request deadline applied to every Solve
	// when the caller's context carries none; 0 means no deadline. A
	// request past its deadline returns context.DeadlineExceeded (and is
	// counted in Stats.DeadlineMisses); combine with a resilience
	// policy's RungDeadline to also bound the work itself.
	SolveTimeout time.Duration
}

// DefaultConfig returns the serving defaults: the paper's recommended
// GESP options with refinement on, batches of up to 16 RHS cut after at
// most 200µs, 256-deep queues, and a 1 GiB factor budget.
func DefaultConfig() Config {
	return Config{
		Options:        core.DefaultOptions(),
		MaxBatch:       16,
		MaxDelay:       200 * time.Microsecond,
		QueueCap:       256,
		MaxFactors:     1024,
		MaxFactorBytes: 1 << 30,
		MaxSymbolic:    256,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.MaxBatch <= 0 {
		c.MaxBatch = d.MaxBatch
	}
	if c.MaxDelay < 0 {
		c.MaxDelay = 0
	}
	if c.QueueCap <= 0 {
		c.QueueCap = d.QueueCap
	}
	if c.MaxFactors <= 0 {
		c.MaxFactors = d.MaxFactors
	}
	if c.MaxFactorBytes <= 0 {
		c.MaxFactorBytes = d.MaxFactorBytes
	}
	if c.MaxSymbolic <= 0 {
		c.MaxSymbolic = d.MaxSymbolic
	}
}

// Handle names a submitted system: the factor-cache key plus the
// dimension. Handles are stable, comparable, and safe to share between
// clients — any client holding a handle may solve against it.
type Handle struct {
	Key FactorKey
	N   int
}

// String encodes the handle as "p<hex>.v<hex>.n<dec>", the wire form
// the HTTP API uses.
func (h Handle) String() string {
	return fmt.Sprintf("p%016x.v%016x.n%d", h.Key.Pattern, h.Key.Values, h.N)
}

// ParseHandle decodes the String form.
func ParseHandle(s string) (Handle, error) {
	var h Handle
	if _, err := fmt.Sscanf(s, "p%016x.v%016x.n%d", &h.Key.Pattern, &h.Key.Values, &h.N); err != nil {
		return Handle{}, fmt.Errorf("serve: malformed handle %q: %w", s, err)
	}
	return h, nil
}

// Service is the concurrent solve service. All methods are safe for
// concurrent use.
type Service struct {
	cfg    Config
	m      Metrics
	c      *cache
	closed atomic.Bool
	// admit is held shared by Submit, the one call that inserts into the
	// caches, and exclusively by Close while it flips closed, so Close
	// waits out a Submit that passed the closed check: no batcher can
	// appear after Close has closed them all.
	admit sync.RWMutex

	symFlight flightGroup[uint64, *core.Solver]
	facFlight flightGroup[FactorKey, *facEntry]
}

// New builds a Service with cfg (zero numeric fields take defaults;
// Options is used as given — start from DefaultConfig for the paper's
// recommended pipeline).
func New(cfg Config) *Service {
	cfg.fillDefaults()
	s := &Service{}
	if cfg.Options.Resilience != nil {
		// Clone the policy and chain its trace hook through the service
		// metrics, so every cached solver built from these options feeds
		// the rung histogram; the caller's own hook still fires.
		pol := *cfg.Options.Resilience
		user := pol.OnTrace
		pol.OnTrace = func(e *resilience.Escalation) {
			s.m.observeEscalation(e)
			if user != nil {
				user(e)
			}
		}
		cfg.Options.Resilience = &pol
	}
	s.cfg = cfg
	s.c = newCache(cfg.MaxSymbolic, cfg.MaxFactors, cfg.MaxFactorBytes, &s.m)
	return s
}

// Submit registers the square matrix a and returns a handle for solves.
// The first submission of a pattern runs the full analysis; a
// pattern-identical resubmission with new values reuses the cached
// analysis and runs only numeric factorization; an identical
// resubmission is a pure cache hit and does no numerical work at all.
// Concurrent submissions of the same system factor once (singleflight).
func (s *Service) Submit(a *sparse.CSC) (Handle, error) {
	s.admit.RLock()
	defer s.admit.RUnlock()
	if s.closed.Load() {
		return Handle{}, ErrClosed
	}
	if a.Rows != a.Cols {
		return Handle{}, fmt.Errorf("serve: matrix is %dx%d, want square", a.Rows, a.Cols)
	}
	s.m.submits.Add(1)
	key := FactorKey{Pattern: sparse.PatternHash(a), Values: sparse.ValueHash(a)}
	h := Handle{Key: key, N: a.Rows}
	if e := s.c.lookupFactor(key); e != nil {
		s.m.facHits.Add(1)
		return h, nil
	}
	s.m.facMisses.Add(1)
	_, err, _ := s.facFlight.Do(key, func() (*facEntry, error) {
		if e := s.c.lookupFactor(key); e != nil {
			return e, nil // a just-finished flight inserted it
		}
		donor, err := s.symbolicFor(key.Pattern, a)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		solver, err := core.NewWithSymbolic(a, donor)
		if err != nil {
			return nil, err
		}
		s.m.observePhase(PhaseFactor, time.Since(t0))
		e := &facEntry{
			key:   key,
			bat:   newBatcher(solver, s.cfg.MaxBatch, s.cfg.MaxDelay, s.cfg.QueueCap, &s.m),
			bytes: factorBytes(solver.Stats()),
		}
		s.c.insertFactor(e)
		return e, nil
	})
	if err != nil {
		return Handle{}, err
	}
	return h, nil
}

// symbolicFor returns the analysis donor for a pattern, building and
// caching it on first sight. The donor is built from whichever matrix
// first presents the pattern; its (value-based) scalings and row
// permutation are deliberately reused for later pattern twins — the
// SamePattern_SameRowPerm trade documented on core.NewWithSymbolic.
func (s *Service) symbolicFor(pattern uint64, a *sparse.CSC) (*core.Solver, error) {
	if donor := s.c.lookupSym(pattern); donor != nil {
		s.m.symHits.Add(1)
		return donor, nil
	}
	s.m.symMisses.Add(1)
	donor, err, _ := s.symFlight.Do(pattern, func() (*core.Solver, error) {
		if d := s.c.lookupSym(pattern); d != nil {
			return d, nil
		}
		t0 := time.Now()
		d, err := core.NewAnalysis(a, s.cfg.Options)
		if err != nil {
			return nil, err
		}
		s.m.observePhase(PhaseAnalyze, time.Since(t0))
		s.c.insertSym(pattern, d)
		return d, nil
	})
	return donor, err
}

// Solve solves A·x = b against the handle's cached factorization,
// coalescing with concurrent solves of the same system into one batched
// triangular sweep. It blocks until the solution is ready; overload and
// eviction surface as ErrOverloaded and ErrHandleExpired.
func (s *Service) Solve(h Handle, b []float64) ([]float64, error) {
	return s.SolveCtx(context.Background(), h, b)
}

// SolveCtx is Solve under a context: the caller's cancellation and
// deadline (tightened by Config.SolveTimeout) bound how long the request
// waits — a request whose context expires returns immediately with
// ctx.Err() while its batch slot completes and is discarded. Poisoned
// right-hand sides (NaN/Inf) fail fast before ever queueing.
func (s *Service) SolveCtx(ctx context.Context, h Handle, b []float64) ([]float64, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if len(b) != h.N {
		return nil, fmt.Errorf("serve: right-hand side length %d, want %d", len(b), h.N)
	}
	for _, v := range b {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// Reject before queueing: no rung can launder a poisoned
			// input, and failing here keeps the batch clean.
			return nil, fmt.Errorf("serve: %w", resilience.ErrNonFiniteRHS)
		}
	}
	e := s.c.lookupFactor(h.Key)
	if e == nil {
		s.m.expired.Add(1)
		return nil, ErrHandleExpired
	}
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}
	x, err := e.bat.submit(ctx, b)
	if errors.Is(err, context.DeadlineExceeded) {
		s.m.deadlineMiss.Add(1)
	}
	return x, err
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := s.m.snapshot()
	st.SymbolicEntries, st.FactorEntries, st.FactorBytes = s.c.occupancy()
	return st
}

// Close stops admitting work (Submit and Solve return ErrClosed), then
// drains gracefully: it blocks until submits already admitted have
// landed in the caches, and every batcher has solved the requests
// already queued and its cutter goroutine has exited. Safe to call
// concurrently and more than once; only the first call drains.
func (s *Service) Close() {
	s.admit.Lock()
	first := s.closed.CompareAndSwap(false, true)
	s.admit.Unlock()
	if !first {
		return
	}
	// The closed flag stops new enqueues at the Service layer; the
	// per-batcher closed flag (set by close) stops the stragglers that
	// passed the flag check before the flip. Each close blocks until
	// that batcher's queue is empty and its cutter has exited.
	for _, e := range s.c.factorEntries() {
		e.bat.close()
	}
}
