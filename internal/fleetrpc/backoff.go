package fleetrpc

import (
	"context"
	"time"
)

// Backoff is the retry policy for one logical request: up to Attempts
// tries, exponential waits from Base to Max, each wait widened by up to
// Jitter of itself so synchronized clients desynchronize. A shard's
// Retry-After overrides the computed wait when longer — the shard
// knows its own refill schedule better than the client's exponent
// does.
type Backoff struct {
	Attempts   int           // total tries, including the first; <=0 takes 4
	Base       time.Duration // first retry's wait; <=0 takes 25ms
	Max        time.Duration // wait ceiling; <=0 takes 400ms
	Multiplier float64       // growth per retry; <=1 takes 2
	Jitter     float64       // extra wait fraction in [0,1); 0 takes 0.5, <0 disables
}

func (b Backoff) fill() Backoff {
	if b.Attempts <= 0 {
		b.Attempts = 4
	}
	if b.Base <= 0 {
		b.Base = 25 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 400 * time.Millisecond
	}
	if b.Multiplier <= 1 {
		b.Multiplier = 2
	}
	switch {
	case b.Jitter == 0:
		b.Jitter = 0.5
	case b.Jitter < 0:
		b.Jitter = 0
	}
	return b
}

// Wait computes the pause before retry number attempt (attempt 0 is
// the wait after the first failure). u is a uniform [0,1) draw from
// the caller's seeded generator; retryAfter is the rejecting side's
// hint (0 for none). Defaults are filled, so any Backoff value is safe
// to call — the HA coordinator client reuses this ladder for
// coordinator failover.
func (b Backoff) Wait(attempt int, u float64, retryAfter time.Duration) time.Duration {
	b = b.fill()
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= b.Multiplier
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	w := time.Duration(d * (1 + b.Jitter*u))
	if retryAfter > w {
		w = retryAfter
	}
	return w
}

// Sleep pauses for d or until ctx ends, whichever is first.
func Sleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
