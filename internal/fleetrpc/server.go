package fleetrpc

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"time"

	"gesp/internal/fleet"
	"gesp/internal/resilience"
	"gesp/internal/serve"
)

// API is what the client-facing routes need from whatever answers
// them: a shard (LocalShard), a coordinator (Fleet), or an HA node.
type API[S any] interface {
	Submit(ctx context.Context, wire MatrixRequest) (serve.Handle, error)
	Solve(ctx context.Context, h serve.Handle, b []float64) ([]float64, error)
	Stats() S
}

// coordinator is the optional half of an API: something that routes
// over numbered members can name a pattern's owner in the submit
// response and drain a member by that number.
type coordinator interface {
	Owner(pattern uint64) int
	Drain(ctx context.Context, id int) error
}

// maxBodyBytes caps every request body the handlers decode. It is a
// variable only so the oversize test need not send this much.
var maxBodyBytes int64 = 256 << 20

// Handler is the one set of client-facing routes, mounted by every
// binary that serves them:
//
//	POST /v1/matrix  {"n":N,"rows":[...],"cols":[...],"vals":[...]}
//	                 -> {"handle":"p….v….n…","n":N,"nnz":…[,"shard":K]}
//	POST /v1/solve   {"handle":"…","b":[...]}  -> {"x":[...]}
//	GET  /v1/stats   -> api.Stats() as JSON
//	POST /v1/drain   {"shard":K} -> {"drained":K}   (coordinators only)
//
// Tenants identify themselves with an X-Tenant header; q (nil for
// none) admits or rejects each matrix and solve request before any
// work is done.
func Handler[S any](api API[S], q *fleet.Quotas) *http.ServeMux {
	co, _ := api.(coordinator)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/matrix", func(w http.ResponseWriter, r *http.Request) {
		var req MatrixRequest
		if !admit(w, r, q) || !DecodeJSON(w, r, &req) {
			return
		}
		h, err := api.Submit(r.Context(), req)
		if err != nil {
			WriteErr(w, err)
			return
		}
		res := MatrixResponse{Handle: h.String(), N: h.N, Nnz: len(req.Vals)}
		if co != nil {
			owner := co.Owner(h.Key.Pattern)
			res.Shard = &owner
		}
		WriteJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		var req SolveRequest
		if !admit(w, r, q) || !DecodeJSON(w, r, &req) {
			return
		}
		h, err := serve.ParseHandle(req.Handle)
		if err != nil {
			WriteErr(w, err)
			return
		}
		x, err := api.Solve(r.Context(), h, req.B)
		if err != nil {
			WriteErr(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, SolveResponse{X: x})
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, api.Stats())
	})
	if co != nil {
		mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
			var req DrainRequest
			if !DecodeJSON(w, r, &req) {
				return
			}
			if err := co.Drain(r.Context(), req.Shard); err != nil {
				WriteErr(w, err)
				return
			}
			WriteJSON(w, http.StatusOK, DrainResponse{Drained: req.Shard})
		})
	}
	return mux
}

// admit spends one of the request's tenant's tokens; absent X-Tenant
// headers share the default bucket. A rejection is already written.
func admit(w http.ResponseWriter, r *http.Request, q *fleet.Quotas) bool {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if err := q.Admit(tenant, time.Now()); err != nil {
		WriteErr(w, err)
		return false
	}
	return true
}

// DecodeJSON reads one bounded JSON request body into v. A failure is
// already written.
func DecodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v); err != nil {
		WriteErr(w, fmt.Errorf("bad %s body: %w", r.URL.Path, err))
		return false
	}
	return true
}

// WriteJSON answers with status and v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("fleetrpc: encode response: %v", err)
	}
}

// WriteErr maps the one error taxonomy onto HTTP statuses — the
// inverse of StatusError: 429 over quota, 503 overloaded / closed / no
// live placement / unreachable, 410 heal-by-resubmit, 504 deadline,
// 422 poisoned input, 413 oversize body, 400 everything else. An error
// that already crossed a wire keeps its status. Any retry-after hint
// goes out both as the whole-second header and, exactly, in the body.
func WriteErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var re *RemoteError
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &re):
		status = re.Status
	case errors.Is(err, fleet.ErrOverQuota):
		status = http.StatusTooManyRequests
	case errors.Is(err, serve.ErrOverloaded), errors.Is(err, serve.ErrClosed),
		errors.Is(err, ErrNoLiveShards), errors.Is(err, ErrUnreachable):
		status = http.StatusServiceUnavailable
	case errors.Is(err, serve.ErrHandleExpired):
		status = http.StatusGone // resubmit the matrix
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, resilience.ErrNonFiniteRHS):
		status = http.StatusUnprocessableEntity // NaN/Inf in b; no rung can fix the input
	case errors.As(err, &tooBig):
		status = http.StatusRequestEntityTooLarge
	}
	hint := RetryAfterHint(err)
	if hint > 0 {
		SetRetryAfter(w, hint)
	}
	msg := err.Error()
	if re != nil {
		msg = re.Msg
	}
	WriteJSON(w, status, ErrorResponse{Error: msg, RetryAfterNS: int64(hint)})
}

// SetRetryAfter writes a Retry-After header, rounding the duration UP
// to whole seconds with a floor of 1: Retry-After speaks integer
// seconds, and truncating a sub-second hint to 0 tells every rejected
// client to retry immediately — the stampede the header exists to
// prevent.
func SetRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// Mux returns the shard's HTTP API: the client-facing routes of
// Handler plus the three a coordinator's Client drives.
//
//	GET  /v1/health    cheap liveness + load signal for the prober
//	POST /v1/handoff   drain: finish queued work, return resident handles
//	POST /v1/degraded  iterative solve from a raw matrix (no factoring)
func (s *LocalShard) Mux() *http.ServeMux {
	mux := Handler(s, nil)
	mux.HandleFunc("GET /v1/health", func(w http.ResponseWriter, r *http.Request) {
		//gesp:errok — a LocalShard's health check cannot fail
		res, _ := s.Health(r.Context())
		WriteJSON(w, http.StatusOK, res)
	})
	// The factors themselves die with the process — over a wire, moving
	// them means re-factoring from the registered matrices, which the
	// coordinator does against the post-drain ring.
	mux.HandleFunc("POST /v1/handoff", func(w http.ResponseWriter, r *http.Request) {
		//gesp:errok — a LocalShard's handoff cannot fail
		exp, _ := s.Handoff(r.Context())
		res := HandoffResponse{Handles: make([]string, 0, len(exp.Factors))}
		for _, f := range exp.Factors {
			res.Handles = append(res.Handles, serve.Handle{Key: f.Key, N: f.N}.String())
		}
		WriteJSON(w, http.StatusOK, res)
	})
	mux.HandleFunc("POST /v1/degraded", func(w http.ResponseWriter, r *http.Request) {
		var req DegradedRequest
		if !DecodeJSON(w, r, &req) {
			return
		}
		x, err := s.SolveDegraded(r.Context(), req.Matrix, req.B)
		if err != nil {
			WriteErr(w, err)
			return
		}
		WriteJSON(w, http.StatusOK, SolveResponse{X: x})
	})
	return mux
}
