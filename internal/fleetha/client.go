package fleetha

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"time"

	"gesp/internal/fleetrpc"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

// Client is the coordinator-fleet client: it knows every coordinator
// address, caches which one leads, follows 307/leader-hint redirects,
// and fails over with the fleetrpc backoff when the leader dies
// mid-election. A request issued the instant the leader is SIGKILL'd
// retries through the election and lands on the successor — the
// caller sees latency, never an error, as long as the retry budget
// covers the lease.
type Client struct {
	coords []string
	retry  fleetrpc.Backoff
	// timeout bounds one attempt against one coordinator.
	timeout time.Duration

	mu sync.Mutex
	//gesp:guardedby:mu
	leader string // cached leader address ("" = unknown)
	//gesp:guardedby:mu
	failStreak int // consecutive failed attempts; reset on any success
	//gesp:guardedby:mu
	rng *rand.Rand

	hc *http.Client
}

// ClientConfig parameterizes the HA client.
type ClientConfig struct {
	// Coordinators is the full coordinator address list.
	Coordinators []string
	// Retry is the per-request backoff ladder. The zero value takes a
	// failover-tuned default: more attempts than the shard client so a
	// request issued mid-election survives a full lease.
	Retry fleetrpc.Backoff
	// AttemptTimeout bounds one attempt (2s when 0).
	AttemptTimeout time.Duration
	// Seed drives the retry jitter (0 takes 1).
	Seed int64
}

// NewClient builds an HA client over the coordinator list.
func NewClient(cfg ClientConfig) (*Client, error) {
	if len(cfg.Coordinators) == 0 {
		return nil, fmt.Errorf("fleetha: no coordinator addresses")
	}
	if cfg.Retry.Attempts == 0 {
		cfg.Retry = fleetrpc.Backoff{Attempts: 10, Base: 20 * time.Millisecond, Max: 300 * time.Millisecond}
	}
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Client{
		coords:  append([]string(nil), cfg.Coordinators...),
		retry:   cfg.Retry,
		timeout: cfg.AttemptTimeout,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		hc:      fleetrpc.NewHTTPClient(),
	}, nil
}

// targets returns the attempt order: cached leader first, then every
// coordinator (the leader again among them — a duplicate cheap try
// beats a miss).
func (c *Client) targets() []string {
	c.mu.Lock()
	leader := c.leader
	c.mu.Unlock()
	out := make([]string, 0, len(c.coords)+1)
	if leader != "" {
		out = append(out, leader)
	}
	out = append(out, c.coords...)
	return out
}

// noteSuccess caches the leader and resets the failure streak — the
// backoff-reset satellite's client-side half: a coordinator fleet
// that just recovered answers the next transient error at Base delay,
// not Max.
func (c *Client) noteSuccess(leader string) {
	c.mu.Lock()
	c.leader = leader
	c.failStreak = 0
	c.mu.Unlock()
}

func (c *Client) noteFailure() {
	c.mu.Lock()
	c.failStreak++
	c.mu.Unlock()
}

// do runs one logical request through leader discovery, redirect
// following, and the retry ladder: body (nil for none) sent as
// contentType, a 200 answer's JSON decoded into out.
func (c *Client) do(ctx context.Context, method, path, contentType string, body []byte, out any) error {
	var lastErr error
	for attempt := 0; attempt < c.retry.Attempts; attempt++ {
		if attempt > 0 {
			if err := c.sleep(ctx, attempt-1, fleetrpc.RetryAfterHint(lastErr)); err != nil {
				return err
			}
		}
		for _, addr := range c.targets() {
			actx, cancel := context.WithTimeout(ctx, c.timeout)
			err := c.doOnce(actx, addr, method, path, contentType, body, out)
			cancel()
			if err == nil {
				return nil
			}
			lastErr = err
			if !fleetrpc.Retryable(err) {
				return err
			}
			if ctx.Err() != nil {
				return lastErr
			}
		}
		c.noteFailure()
	}
	return lastErr
}

// redirectMiss is the error for a redirect pointing at a node that is
// not (or no longer) the leader — a coordinator closed to us, so
// retryable: the election is converging.
func redirectMiss(to string) error {
	return fleetrpc.StatusError(http.StatusServiceUnavailable, "fleetha: redirected to "+to+" which is not leading", 0)
}

// doOnce issues one attempt against one coordinator, following at
// most one redirect hop (the follower's 307 to the leader).
func (c *Client) doOnce(ctx context.Context, addr, method, path, contentType string, body []byte, out any) error {
	hop := addr
	for redirects := 0; redirects < 2; redirects++ {
		err := fleetrpc.DoJSON(ctx, c.hc, method, "http://"+hop+path, contentType, body, out)
		var re *fleetrpc.RemoteError
		if !errors.As(err, &re) || re.Status != http.StatusTemporaryRedirect {
			if err == nil {
				c.noteSuccess(hop)
			}
			return err
		}
		to, perr := url.Parse(re.Location)
		if perr != nil || to.Host == "" || to.Host == hop {
			return redirectMiss(hop)
		}
		hop = to.Host
	}
	return redirectMiss(hop)
}

// sleep waits out one retry step, folding the failure streak into the
// schedule exactly like the shard coordinator does.
func (c *Client) sleep(ctx context.Context, attempt int, retryAfter time.Duration) error {
	c.mu.Lock()
	u := c.rng.Float64()
	streak := c.failStreak
	c.mu.Unlock()
	if streak > 4 {
		streak = 4
	}
	// The streak and the attempt index measure the same outage from two
	// clocks; charge the larger, not the sum, so a fresh request after
	// a long outage still starts near the ceiling while a mid-request
	// retry isn't double-billed.
	eff := attempt
	if streak > eff {
		eff = streak
	}
	return fleetrpc.Sleep(ctx, c.retry.Wait(eff, u, retryAfter))
}

// Submit registers a matrix with the coordinator fleet, sent as its
// frame.
func (c *Client) Submit(ctx context.Context, a *sparse.CSC) (serve.Handle, error) {
	var res fleetrpc.MatrixResponse
	if err := c.do(ctx, http.MethodPost, "/v1/matrix", fleetrpc.FrameContentType, fleetrpc.WireMatrix(a).Bytes(), &res); err != nil {
		return serve.Handle{}, err
	}
	return serve.ParseHandle(res.Handle)
}

// Solve routes one right-hand side.
func (c *Client) Solve(ctx context.Context, h serve.Handle, b []float64) ([]float64, error) {
	body, err := json.Marshal(fleetrpc.SolveRequest{Handle: h.String(), B: b})
	if err != nil {
		return nil, fmt.Errorf("fleetha: marshal /v1/solve body: %w", err)
	}
	var res fleetrpc.SolveResponse
	if err := c.do(ctx, http.MethodPost, "/v1/solve", "application/json", body, &res); err != nil {
		return nil, err
	}
	if len(res.X) != h.N {
		return nil, fmt.Errorf("%w: solution length %d, want %d", fleetrpc.ErrUnreachable, len(res.X), h.N)
	}
	return res.X, nil
}

// Stats fetches the leader's coordinator stats.
func (c *Client) Stats(ctx context.Context) (fleetrpc.Stats, error) {
	var res fleetrpc.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", "", nil, &res)
	return res, err
}

// Status fetches one coordinator's election view directly (no
// redirect — status is answered by every node).
func (c *Client) Status(ctx context.Context, addr string) (StatusResponse, error) {
	var res StatusResponse
	err := fleetrpc.DoJSON(ctx, c.hc, http.MethodGet, "http://"+addr+"/ha/v1/status", "", nil, &res)
	return res, err
}

// Trace fetches the leader's controller decision log.
func (c *Client) Trace(ctx context.Context) (TraceResponse, error) {
	var res TraceResponse
	err := c.do(ctx, http.MethodGet, "/ha/v1/trace", "", nil, &res)
	return res, err
}

// Leader returns the cached leader address ("" when unknown).
func (c *Client) Leader() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leader
}
