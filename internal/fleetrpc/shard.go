package fleetrpc

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"

	"gesp/internal/krylov"
	"gesp/internal/serve"
)

// Shard is one member of the fleet as the router sees it: somewhere a
// system can be factored and solved against. The interface hides the
// transport — LocalShard is a serve.Service in this process, Client is
// one in another — and lets tests and experiments substitute or
// decorate shards. Both implementations return the same typed errors
// (serve.ErrHandleExpired, *serve.OverloadedError, serve.ErrClosed,
// context deadline), so the router never asks which kind it holds.
type Shard interface {
	// Addr names the shard: a host:port for a process, a label for an
	// in-process one. It is what membership reports and HA replicates.
	Addr() string
	// Submit factors (or finds cached) the system and returns its handle.
	Submit(ctx context.Context, wire MatrixRequest) (serve.Handle, error)
	// Solve solves one right-hand side against a submitted handle.
	Solve(ctx context.Context, h serve.Handle, b []float64) ([]float64, error)
	// SolveDegraded solves iteratively from the raw matrix, touching no
	// cache — the request of last resort.
	SolveDegraded(ctx context.Context, wire MatrixRequest, b []float64) ([]float64, error)
	// Health is the prober's cheap liveness and load check.
	Health(ctx context.Context) (HealthResponse, error)
	// Handoff drains the shard — admission closes, queued solves finish —
	// and exports what its caches held. Whatever cannot leave the shard's
	// address space (solvers, analysis donors) is simply absent.
	Handoff(ctx context.Context) (serve.Export, error)
	// ExportSymbolic peeks the analysis donor for one pattern without
	// disturbing the shard, so a replica can skip re-analysis. Empty
	// when there is none to share.
	ExportSymbolic(ctx context.Context, pattern uint64) (serve.Export, error)
	// Import adopts as much of an export as it can use and reports how
	// many entries that was; the router re-submits from its registry
	// whatever is still missing.
	Import(ctx context.Context, exp serve.Export) (adopted int, err error)
}

// LocalShard is the Shard over an in-process serve.Service. Its Mux is
// the HTTP face cmd/gesp-serve mounts, which is what makes any
// gesp-serve process a shard a Client can reach.
type LocalShard struct {
	addr string
	svc  *serve.Service
	// draining flips when a handoff has closed the service: health
	// reports it so the prober retires this member instead of
	// resurrecting a shard that still answers but admits nothing.
	draining atomic.Bool
}

// NewLocalShard wraps a service; addr is the name membership reports.
func NewLocalShard(addr string, svc *serve.Service) *LocalShard {
	return &LocalShard{addr: addr, svc: svc}
}

// LocalShards wraps in-process services as the Config.Shards of a
// single-process fleet, named local-0, local-1, …. The caller keeps
// ownership of the services (and closes them).
func LocalShards(svcs ...*serve.Service) []Shard {
	out := make([]Shard, len(svcs))
	for i, svc := range svcs {
		out[i] = NewLocalShard("local-"+strconv.Itoa(i), svc)
	}
	return out
}

func (s *LocalShard) Addr() string { return s.addr }

func (s *LocalShard) Submit(_ context.Context, wire MatrixRequest) (serve.Handle, error) {
	a, err := AssembleMatrix(wire)
	if err != nil {
		return serve.Handle{}, err
	}
	return s.svc.Submit(a)
}

func (s *LocalShard) Solve(ctx context.Context, h serve.Handle, b []float64) ([]float64, error) {
	return s.svc.SolveCtx(ctx, h, b)
}

// Stats is the shard's serve-layer counters.
func (s *LocalShard) Stats() serve.Stats { return s.svc.Stats() }

func (s *LocalShard) Health(context.Context) (HealthResponse, error) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	return HealthResponse{
		Status:     status,
		QueueDepth: s.svc.QueueDepth(),
		Factors:    s.svc.Stats().FactorEntries,
	}, nil
}

func (s *LocalShard) Handoff(context.Context) (serve.Export, error) {
	s.draining.Store(true)
	return s.svc.Drain(), nil
}

func (s *LocalShard) ExportSymbolic(_ context.Context, pattern uint64) (serve.Export, error) {
	donor := s.svc.ExportSymbolic(pattern)
	if donor == nil {
		return serve.Export{}, nil
	}
	return serve.Export{Symbolic: []serve.ExportedSymbolic{{Pattern: pattern, Donor: donor}}}, nil
}

// Import adopts every entry that carries its in-memory payload. The
// solvers move — never shared — so the single-writer contract on
// core.Solver survives the handoff; no numeric work runs.
func (s *LocalShard) Import(_ context.Context, exp serve.Export) (int, error) {
	adopted := 0
	for _, es := range exp.Symbolic {
		if es.Donor == nil {
			continue
		}
		if err := s.svc.ImportSymbolic(es.Pattern, es.Donor); err != nil {
			return adopted, err
		}
		adopted++
	}
	for _, ef := range exp.Factors {
		if ef.Solver == nil {
			continue
		}
		if _, err := s.svc.ImportFactor(ef); err != nil {
			return adopted, err
		}
		adopted++
	}
	return adopted, nil
}

// degradedOptions bound the last-resort iterative solve: a looser
// tolerance than the direct path's refinement target (the point is an
// answer, not eps-level backward error) under a hard iteration cap so
// a hopeless system cannot pin a surviving shard.
var degradedOptions = krylov.Options{Tol: 1e-8, MaxIter: 2000, Restart: 60}

func (s *LocalShard) SolveDegraded(ctx context.Context, wire MatrixRequest, b []float64) ([]float64, error) {
	a, err := AssembleMatrix(wire)
	if err != nil {
		return nil, err
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("right-hand side length %d, want %d", len(b), a.Rows)
	}
	opts := degradedOptions
	opts.Cancel = func() bool { return ctx.Err() != nil }
	// ILU0 is the preconditioner of the resilience ladder's iterative
	// rung when no factors exist; a structurally unsuitable matrix
	// falls back to unpreconditioned GMRES.
	var pre krylov.Preconditioner = krylov.Identity{}
	if ilu, ierr := krylov.NewILU0(a); ierr == nil {
		pre = ilu
	}
	x, st := krylov.GMRES(a, pre, make([]float64, a.Rows), b, opts)
	switch {
	case st.Canceled:
		return nil, context.DeadlineExceeded
	case !st.Converged:
		return nil, fmt.Errorf("degraded solve did not converge: residual %.3g after %d iterations", st.Residual, st.Iterations)
	}
	return x, nil
}
