package fleetrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"gesp/internal/serve"
)

// ErrUnreachable is the transport-failure class: connection refused,
// reset, or dead mid-body. errors.Is against it matches any wrapped
// transport error. It is always retryable and, unlike an error the
// shard itself returned, also feeds the membership failure counter — a
// shard that sheds load is alive; one that doesn't answer at all may
// be gone.
var ErrUnreachable = errors.New("fleetrpc: shard unreachable")

// RemoteError is a non-200 response, decoded. It unwraps to the typed
// error its status stands for — the same value a LocalShard returns
// for the same condition — so Retryable, Expired and RetryAfterHint
// never look at a status code:
//
//	410 serve.ErrHandleExpired     503 + hint *serve.OverloadedError
//	502 ErrUnreachable             503        serve.ErrClosed
//	504 context.DeadlineExceeded
//
// Every other status is terminal and unwraps to nothing.
type RemoteError struct {
	Status int
	Msg    string
	// Location is the redirect target of a 3xx response (the HA
	// follower's pointer at its leader); empty otherwise.
	Location string
	cause    error
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("fleetrpc: remote returned %d: %s", e.Status, e.Msg)
}

func (e *RemoteError) Unwrap() error { return e.cause }

// StatusError builds the RemoteError for a status, message and
// retry-after hint (0 for none).
func StatusError(status int, msg string, hint time.Duration) *RemoteError {
	re := &RemoteError{Status: status, Msg: msg}
	switch status {
	case http.StatusGone:
		re.cause = serve.ErrHandleExpired
	case http.StatusBadGateway:
		re.cause = ErrUnreachable
	case http.StatusServiceUnavailable:
		re.cause = serve.ErrClosed
		if hint > 0 {
			re.cause = &serve.OverloadedError{RetryAfter: hint}
		}
	case http.StatusGatewayTimeout:
		re.cause = context.DeadlineExceeded
	}
	return re
}

// Retryable classifies an error from a Shard or the router: true for
// transport failures, deadline expiry, and the conditions that mean
// "not now" rather than "never" — a shed queue, a closed or draining
// shard, no live placement. Solves are idempotent — the same handle and
// right-hand side produce the same answer — so a retryable solve can
// always be re-sent, to the same shard or another.
func Retryable(err error) bool {
	for _, class := range []error{ErrUnreachable, context.DeadlineExceeded, serve.ErrOverloaded,
		serve.ErrClosed, ErrNoLiveShards} {
		if errors.Is(err, class) {
			return true
		}
	}
	return false
}

// Expired reports that the handle's factors were evicted (or the shard
// restarted): the cure is re-submitting the matrix, not retrying the
// solve.
func Expired(err error) bool { return errors.Is(err, serve.ErrHandleExpired) }

// RetryAfterHint extracts the rejecting side's retry-after suggestion,
// or 0.
func RetryAfterHint(err error) time.Duration {
	var oe *serve.OverloadedError
	if errors.As(err, &oe) {
		return oe.RetryAfter
	}
	return 0
}

// DoBytes is the one HTTP round trip of the stack: send body (nil for
// none) to url as contentType — FrameContentType or JSON, the codec the
// receiver picks by — and return a 200 response's body, read to the end
// so the connection goes back to the pool. Non-200 responses come back
// as *RemoteError; transport failures, a body cut short included, wrap
// ErrUnreachable; the context's own error surfaces as itself so a retry
// layer can tell "peer gone" from "budget spent".
func DoBytes(ctx context.Context, hc *http.Client, method, url, contentType string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, fmt.Errorf("fleetrpc: build %s request: %w", url, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := hc.Do(req)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("%w: %s: %v", ErrUnreachable, req.URL.Host, err)
	}
	res, err := io.ReadAll(resp.Body)
	//gesp:errok — close of a response body already read; nothing to recover
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eres ErrorResponse
		if derr := json.Unmarshal(res, &eres); derr != nil || eres.Error == "" {
			eres.Error = resp.Status
		}
		hint := time.Duration(eres.RetryAfterNS)
		if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); hint <= 0 && perr == nil && secs > 0 {
			hint = time.Duration(secs) * time.Second
		}
		re := StatusError(resp.StatusCode, eres.Error, hint)
		re.Location = resp.Header.Get("Location")
		return nil, re
	}
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		return nil, fmt.Errorf("%w: %s: bad response body: %v", ErrUnreachable, req.URL.Host, err)
	}
	return res, nil
}

// DoJSON is DoBytes with a JSON answer: a 200 response's body decoded
// into out (nil to ignore it). An undecodable answer is a broken peer:
// ErrUnreachable.
func DoJSON(ctx context.Context, hc *http.Client, method, url, contentType string, body []byte, out any) error {
	res, err := DoBytes(ctx, hc, method, url, contentType, body)
	if err != nil || out == nil {
		return err
	}
	if err := json.Unmarshal(res, out); err != nil {
		return fmt.Errorf("%w: %s: bad response body: %v", ErrUnreachable, url, err)
	}
	return nil
}

// NewHTTPClient builds an HTTP client with its own connection pool (a
// clone of the default transport, not a share of it), so closing one
// peer's idle sockets never touches another's. It never follows
// redirects: a 307 comes back as a *RemoteError carrying its Location,
// and a request is never silently re-routed.
func NewHTTPClient() *http.Client {
	cli := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		cli.Transport = t.Clone()
	}
	return cli
}

// Client is the Shard in another process: it speaks the wire format to
// one gesp-serve address. Safe for concurrent use; there is no
// client-level timeout (deadlines come from the caller's context,
// which the retry layer owns).
type Client struct {
	addr string // host:port
	hc   *http.Client
}

// NewClient builds the client for one shard address.
func NewClient(addr string) *Client { return &Client{addr: addr, hc: NewHTTPClient()} }

// Dial builds one Client per address — the Config.Shards of a
// coordinator over already-running gesp-serve processes.
func Dial(addrs []string) []Shard {
	out := make([]Shard, len(addrs))
	for i, a := range addrs {
		out[i] = NewClient(a)
	}
	return out
}

// Addr is the shard's host:port.
func (c *Client) Addr() string { return c.addr }

// do runs one round trip against the shard: body (nil for none) sent
// as contentType, a 200 answer's JSON decoded into out (nil to ignore
// it).
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	return c.dropIdleOn(DoJSON(ctx, c.hc, method, "http://"+c.addr+path, contentType, body, out))
}

// dropIdleOn passes err through; a request that died in transport or
// timed out also drops the pooled keep-alive connections: a
// long-running coordinator must not hold sockets to a killed or frozen
// shard process for its own lifetime, and a healthy shard just redials.
func (c *Client) dropIdleOn(err error) error {
	if errors.Is(err, ErrUnreachable) || errors.Is(err, context.DeadlineExceeded) {
		c.hc.CloseIdleConnections()
	}
	return err
}

// Submit sends a matrix, as its frame, and returns its handle.
func (c *Client) Submit(ctx context.Context, m Matrix) (serve.Handle, error) {
	var res MatrixResponse
	if err := c.do(ctx, http.MethodPost, "/v1/matrix", FrameContentType, m.Bytes(), &res); err != nil {
		return serve.Handle{}, err
	}
	return serve.ParseHandle(res.Handle)
}

// Solve sends one right-hand side against a handle: the encoded
// request through SolveWire, the checked answer decoded.
func (c *Client) Solve(ctx context.Context, h serve.Handle, b []float64) ([]float64, error) {
	body, err := json.Marshal(SolveRequest{Handle: h.String(), B: b})
	if err != nil {
		return nil, fmt.Errorf("fleetrpc: marshal /v1/solve body: %w", err)
	}
	out, err := c.SolveWire(ctx, h, body)
	if err != nil {
		return nil, err
	}
	var res SolveResponse
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("%w: %s: bad response body: %v", ErrUnreachable, c.addr, err)
	}
	return res.X, nil
}

// SolveWire posts an encoded /v1/solve body as it is and returns the
// shard's answer as it is, once it has the shape of a SolveResponse
// with h.N elements (solutionShaped). A short or malformed answer is a
// broken peer, retryable like any other: ErrUnreachable.
func (c *Client) SolveWire(ctx context.Context, h serve.Handle, body []byte) ([]byte, error) {
	out, err := DoBytes(ctx, c.hc, http.MethodPost, "http://"+c.addr+"/v1/solve", "application/json", body)
	if err = c.dropIdleOn(err); err != nil {
		return nil, err
	}
	if !solutionShaped(out, h.N) {
		return nil, fmt.Errorf("%w: %s: answer is not a solution of length %d", ErrUnreachable, c.addr, h.N)
	}
	return out, nil
}

// SolveDegraded asks the shard for an iterative solve from the raw
// matrix — no handle, no factors, no cache. The matrix frame and b
// travel as one frame.
func (c *Client) SolveDegraded(ctx context.Context, m Matrix, b []float64) ([]float64, error) {
	var res SolveResponse
	err := c.do(ctx, http.MethodPost, "/v1/degraded", FrameContentType, encodeDegraded(m, b), &res)
	return res.X, err
}

// Health probes the shard.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var res HealthResponse
	err := c.do(ctx, http.MethodGet, "/v1/health", "", nil, &res)
	return res, err
}

// Handoff drains the shard: it returns once admission has closed and
// the queued solves have finished.
func (c *Client) Handoff(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/handoff", "", nil, nil)
}
