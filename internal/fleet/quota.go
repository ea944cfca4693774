package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrOverQuota is the admission-control rejection class. The error
// actually returned is a *QuotaError carrying the tenant and a
// retry-after hint; errors.Is against this sentinel matches it.
//
// Quota rejections are deliberately typed apart from serve's
// ErrOverloaded: an overloaded shard is a per-shard condition worth
// retrying on a replica, while a quota rejection follows the tenant to
// every shard — retrying elsewhere only burns router work.
var ErrOverQuota = errors.New("fleet: tenant over quota")

// QuotaError is the typed admission rejection.
type QuotaError struct {
	Tenant     string
	RetryAfter time.Duration
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("fleet: tenant %q over quota, retry after %v", e.Tenant, e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverQuota) true for the typed error.
func (e *QuotaError) Is(target error) bool { return target == ErrOverQuota }

// Quotas is the per-tenant token-bucket table: each tenant accrues
// rate tokens/second up to burst; a request spends one token or is
// rejected with the time until the next token accrues. Buckets are
// created on first sight of a tenant. A nil *Quotas admits everything.
type Quotas struct {
	rate  float64 // tokens per second; <=0 disables admission control
	burst float64

	mu sync.Mutex
	//gesp:guardedby:mu
	buckets map[string]*bucket
	// rng jitters rejection waits; seeded deterministically so quota
	// behavior reproduces, guarded because rand.Rand is not
	// concurrency-safe.
	//gesp:guardedby:mu
	rng *rand.Rand
}

// retryJitter is the jitter band added to a quota rejection's
// RetryAfter: up to +50% of the base wait. Without it, every client of
// a throttled tenant computes the identical wait and retries in
// lockstep, re-forming the same thundering herd one refill later.
const retryJitter = 0.5

type bucket struct {
	tokens float64
	last   time.Time
}

// NewQuotas builds the admission table; rate <= 0 disables admission
// control, burst < 1 is raised to 1.
func NewQuotas(rate, burst float64) *Quotas {
	if burst < 1 {
		burst = 1
	}
	return &Quotas{
		rate:    rate,
		burst:   burst,
		buckets: make(map[string]*bucket),
		rng:     rand.New(rand.NewSource(1)),
	}
}

// Admit spends one of tenant's tokens at time now, returning nil when
// admitted. When the bucket is empty it returns a *QuotaError whose
// jittered RetryAfter is at least the time until one token has accrued
// (never exactly the same twice, so rejected clients don't retry in
// lockstep).
func (q *Quotas) Admit(tenant string, now time.Time) error {
	if q == nil || q.rate <= 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b, ok := q.buckets[tenant]
	if !ok {
		b = &bucket{tokens: q.burst, last: now}
		q.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * q.rate
		if b.tokens > q.burst {
			b.tokens = q.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return nil
	}
	wait := time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
	wait += time.Duration(retryJitter * q.rng.Float64() * float64(wait))
	return &QuotaError{Tenant: tenant, RetryAfter: wait}
}
