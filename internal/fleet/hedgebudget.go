package fleet

import "sync"

// HedgeBudget caps duplicated hedge work at a fraction of routed
// traffic: every routed request accrues `rate` tokens (a rate of 0.1
// means at most ~10% of traffic may be hedged in steady state), and
// launching one hedge spends one whole token. The bucket starts full at
// `burst` so a cold fleet can still hedge its first stragglers, but a
// straggler storm cannot double fleet load — once the bucket is dry,
// requests fall back to the unhedged path and the denial is counted.
//
// A nil *HedgeBudget, or one built with rate <= 0, is the unlimited
// budget: Accrue is a no-op and TryStake always grants.
//
// The mutex makes the accrue/stake arithmetic atomic without
// allocating, which keeps the fleet/solve-warm hot path on its
// zero-allocation budget.
type HedgeBudget struct {
	rate  float64 // tokens accrued per routed request; <=0 means unlimited
	burst float64 // bucket capacity (and the cold-start balance)

	mu sync.Mutex
	//gesp:guardedby:mu
	tokens float64
	//gesp:guardedby:mu
	staked uint64 // hedges granted
	//gesp:guardedby:mu
	denied uint64 // hedges refused because the bucket was dry
}

// NewHedgeBudget builds a bucket granting at most ~rate hedges per
// routed request, with bursts of up to burst back-to-back hedges
// (burst < 1 is raised to 1 so a granted budget can always stake at
// least one token). rate <= 0 returns an unlimited budget.
func NewHedgeBudget(rate, burst float64) *HedgeBudget {
	if rate <= 0 {
		return &HedgeBudget{}
	}
	if burst < 1 {
		burst = 1
	}
	return &HedgeBudget{rate: rate, burst: burst, tokens: burst}
}

// limited reports whether the budget actually constrains hedging.
func (hb *HedgeBudget) limited() bool { return hb != nil && hb.rate > 0 }

// Accrue credits one routed request's worth of hedge allowance.
func (hb *HedgeBudget) Accrue() {
	if !hb.limited() {
		return
	}
	hb.mu.Lock()
	hb.tokens += hb.rate
	if hb.tokens > hb.burst {
		hb.tokens = hb.burst
	}
	hb.mu.Unlock()
}

// TryStake spends one token to launch a hedge. It returns false — and
// counts the denial — when the bucket is dry; an unlimited budget
// always grants.
func (hb *HedgeBudget) TryStake() bool {
	if !hb.limited() {
		return true
	}
	hb.mu.Lock()
	defer hb.mu.Unlock()
	if hb.tokens >= 1 {
		hb.tokens--
		hb.staked++
		return true
	}
	hb.denied++
	return false
}

// Counts snapshots the grant/denial counters (both zero for an
// unlimited budget, which never refuses and never needs accounting).
func (hb *HedgeBudget) Counts() (staked, denied uint64) {
	if !hb.limited() {
		return 0, 0
	}
	hb.mu.Lock()
	defer hb.mu.Unlock()
	return hb.staked, hb.denied
}
