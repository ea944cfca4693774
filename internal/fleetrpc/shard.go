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
	Submit(ctx context.Context, m Matrix) (serve.Handle, error)
	// Solve solves one right-hand side against a submitted handle.
	Solve(ctx context.Context, h serve.Handle, b []float64) ([]float64, error)
	// SolveWire is Solve on an encoded /v1/solve body routed by h,
	// answered with the encoded SolveResponse: the leg a coordinator
	// forwards bytes through.
	SolveWire(ctx context.Context, h serve.Handle, body []byte) ([]byte, error)
	// SolveDegraded solves iteratively from the raw matrix, touching no
	// cache — the request of last resort.
	SolveDegraded(ctx context.Context, m Matrix, b []float64) ([]float64, error)
	// Health is the prober's cheap liveness check.
	Health(ctx context.Context) (HealthResponse, error)
	// Handoff drains the shard: admission closes and queued solves
	// finish. Its cached factors stay behind; the router re-homes them
	// from its registry.
	Handoff(ctx context.Context) error
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

func (s *LocalShard) Submit(_ context.Context, m Matrix) (serve.Handle, error) {
	a, err := m.CSC()
	if err != nil {
		return serve.Handle{}, err
	}
	return s.svc.Submit(a)
}

func (s *LocalShard) Solve(ctx context.Context, h serve.Handle, b []float64) ([]float64, error) {
	return s.svc.SolveCtx(ctx, h, b)
}

// SolveWire decodes and validates the whole body here, beside the
// factors. A body whose handle disagrees with the one it was routed by
// is refused: the route and the solve must name the same system.
func (s *LocalShard) SolveWire(ctx context.Context, h serve.Handle, body []byte) ([]byte, error) {
	req, err := DecodeSolveRequest(body)
	if err != nil {
		return nil, fmt.Errorf("bad /v1/solve body: %w", err)
	}
	if bh, err := serve.ParseHandle(req.Handle); err != nil || bh != h {
		return nil, fmt.Errorf("bad /v1/solve body: handle %q, routed as %v", req.Handle, h)
	}
	x, err := s.Solve(ctx, h, req.B)
	if err != nil {
		return nil, err
	}
	return encodeSolution(x)
}

// Stats is the shard's serve-layer counters.
func (s *LocalShard) Stats() serve.Stats { return s.svc.Stats() }

func (s *LocalShard) Health(context.Context) (HealthResponse, error) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	return HealthResponse{Status: status}, nil
}

func (s *LocalShard) Handoff(context.Context) error {
	s.draining.Store(true)
	s.svc.Close()
	return nil
}

// degradedOptions bound the last-resort iterative solve: a looser
// tolerance than the direct path's refinement target (the point is an
// answer, not eps-level backward error) under a hard iteration cap so
// a hopeless system cannot pin a surviving shard.
var degradedOptions = krylov.Options{Tol: 1e-8, MaxIter: 2000, Restart: 60}

func (s *LocalShard) SolveDegraded(ctx context.Context, m Matrix, b []float64) ([]float64, error) {
	a, err := m.CSC()
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
