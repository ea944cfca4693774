package fleetrpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gesp/internal/fleet"
	"gesp/internal/serve"
	"gesp/internal/sparse"
)

// ErrNoLiveShards means every member is dead (or administratively
// drained) — there is nowhere to place a request right now. It is
// retryable: the prober revives members the moment they answer again.
var ErrNoLiveShards = errors.New("fleetrpc: no live shards")

// maxReplication caps a pattern's placement width: owner plus up to
// three replicas, so placement buffers stay on the stack.
const maxReplication = 4

// backoffSickCap bounds how many of a member's consecutive failures
// fold into the retry schedule: a member that has been failing for a
// while starts near the wait ceiling immediately, but the penalty is
// bounded — and it resets to zero on the member's first success, so a
// recovered shard's next transient error waits Base, not Max.
const backoffSickCap = 4

// probeJitter widens each prober tick by up to ±this fraction of
// ProbeInterval, so N coordinators started together do not
// synchronize their probe bursts against the same shard.
const probeJitter = 0.2

// submitTimeout bounds one matrix submit: a cold submit runs analysis
// and numeric factorization, legitimately far slower than any solve.
const submitTimeout = 30 * time.Second

// Config parameterizes the router.
type Config struct {
	// Shards are the initial members — Dial(addrs) for gesp-serve
	// processes, LocalShards(svcs...) for in-process services. Member ids
	// are the indexes into this slice.
	Shards []Shard
	// Replication is how many members hold each pattern (owner
	// included): every Submit lands on the owner and Replication-1 ring
	// successors, so a failover target already has the factors. <=0
	// takes 2; capped at maxReplication. PromotePattern widens a single
	// pattern beyond this at runtime (the SLO controller's knob).
	Replication int
	// VNodes is the consistent-hash points per member (fleet.DefaultVNodes
	// when <=0).
	VNodes int

	// ProbeInterval is the health-check period (50ms when <=0): every
	// member is probed concurrently each tick.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health check (4x ProbeInterval
	// when <=0). A SIGSTOPped shard accepts the connection and then
	// hangs, so the timeout — not a refused connect — is what detects a
	// partitioned member.
	ProbeTimeout time.Duration
	// SuspectAfter is the consecutive-failure count that moves a member
	// alive -> suspect (placement deprioritizes it); <=0 takes 1.
	SuspectAfter int
	// DeadAfter is the consecutive-failure count that moves a suspect
	// member to dead (ring rebuild + re-replication); values <=
	// SuspectAfter take SuspectAfter+2.
	DeadAfter int

	// Retry is the per-request retry/backoff policy.
	Retry Backoff
	// RequestTimeout bounds one solve attempt on one placement (2s when
	// <=0) — the per-attempt slice of the overall deadline budget, which
	// the caller's context owns.
	RequestTimeout time.Duration

	// HedgeAfter launches a budget-gated hedge to the first replica when
	// the primary hasn't answered within this duration. <=0 disables
	// hedging.
	HedgeAfter time.Duration
	// HedgeBudget/HedgeBurst parameterize the shared hedge token bucket
	// (see fleet.HedgeBudget); Budget<=0 leaves hedging unlimited.
	HedgeBudget float64
	HedgeBurst  float64

	// DegradedFallback, when set, answers a solve whose every placement
	// is down — after retries and healing have failed — by shipping the
	// registered matrix to any live member's iterative path. Slower and
	// less accurate than the direct solve, but an answer instead of an
	// error.
	DegradedFallback bool

	// Registry is the matrix registry the router writes and heals
	// from; nil takes a fresh one. An HA coordinator passes the one it
	// owns for its lifetime, so a follower that wins an election routes
	// over every entry its leader streamed to it and every handle the
	// old leader ever acked survives the failover. New re-replicates
	// the entries already in it in the background.
	Registry *Registry
	// DeadMembers are Shards indexes to treat as dead from birth — the
	// previous leader's replicated membership view, so a failed-over
	// coordinator starts with the ring its predecessor was routing on
	// instead of rediscovering every death at a probe interval's cost.
	DeadMembers []int

	// Seed seeds the coordinator's jitter source (0 takes 1); fixed so
	// retry schedules reproduce in tests.
	Seed int64
}

// DefaultConfig is a router tuned for LAN shards: the zero-value
// defaults (2x replication, 50ms probing, dead after 3 failures) plus
// hedging after 100ms capped at 10% of traffic, and the degraded
// fallback on.
func DefaultConfig(shards []Shard) Config {
	return Config{
		Shards:           shards,
		HedgeAfter:       100 * time.Millisecond,
		HedgeBudget:      0.1,
		HedgeBurst:       8,
		DegradedFallback: true,
	}
}

func (c *Config) fillDefaults() {
	if c.Replication <= 0 {
		c.Replication = 2
	}
	if c.Replication > maxReplication {
		c.Replication = maxReplication
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 50 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 4 * c.ProbeInterval
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 1
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + 2
	}
	c.Retry = c.Retry.fill()
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Fleet is the router: consistent-hash placement over its Shards with
// health-checked membership, retry/backoff, a hedging budget, drain
// and degraded fallback (see the package comment). Safe for concurrent
// use.
type Fleet struct {
	cfg   Config
	hedge *fleet.HedgeBudget
	m     metrics
	// lat is the fleet-wide client-observed solve latency histogram;
	// windowed snapshots of it are the SLO controller's p999 signal.
	lat fleet.LatHist

	// members is the membership table, fixed at New: member ids are
	// indexes into it, and only each member's health state changes.
	members []*member

	// ring is the current placement over non-dead member ids;
	// immutable, rebuilt and swapped atomically on every membership
	// change so the routing path takes no lock. ringGen counts swaps —
	// the generation the HA layer streams to follower coordinators.
	ring    atomic.Pointer[fleet.Ring]
	ringGen atomic.Uint64

	// registry keeps every submitted system as its Matrix frame: the
	// router re-sends those bytes to heal evictions, to re-replicate
	// after a membership change, and to feed the degraded path.
	registry *Registry

	mu sync.Mutex
	// replBoost widens a single pattern's placement beyond
	// cfg.Replication (pattern -> extra replicas) — the SLO controller's
	// promote/demote knob.
	//gesp:guardedby:mu
	replBoost map[uint64]int
	// rng drives retry and probe jitter; seeded so schedules reproduce,
	// guarded because rand.Rand is not concurrency-safe.
	//gesp:guardedby:mu
	rng *rand.Rand

	// drainMu serializes Drain's check-and-mark: one drain at a time.
	drainMu sync.Mutex

	// pop counts routed solves per pattern (pattern -> *atomic.Uint64)
	// off the per-solve mutex: counting a known pattern's solve is a
	// map load and an atomic add. The counts only grow; HotPatterns
	// reads them against popSeen, the counts at its previous call, so
	// each call reports one window.
	pop   sync.Map
	popMu sync.Mutex
	//gesp:guardedby:popMu
	popSeen map[uint64]uint64

	closed atomic.Bool
	stop   chan struct{}
	wg     sync.WaitGroup
}

// New builds a router over cfg.Shards and starts its prober. It does
// not contact the shards — the first probe tick and the first request
// do; a shard that is still starting up just eats a few failures and
// revives on its first healthy probe.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("fleetrpc: no shards")
	}
	cfg.fillDefaults()
	if cfg.Registry == nil {
		cfg.Registry = new(Registry)
	}
	now := time.Now()
	f := &Fleet{
		cfg:       cfg,
		hedge:     fleet.NewHedgeBudget(cfg.HedgeBudget, cfg.HedgeBurst),
		registry:  cfg.Registry,
		replBoost: make(map[uint64]int),
		popSeen:   make(map[uint64]uint64),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		stop:      make(chan struct{}),
	}
	members := make([]*member, len(cfg.Shards))
	for i, sh := range cfg.Shards {
		members[i] = newMember(i, sh, now)
	}
	for _, id := range cfg.DeadMembers {
		if id >= 0 && id < len(members) {
			members[id].markDead(now)
		}
	}
	f.members = members
	// A takeover coordinator re-homes its inherited registry under its
	// own ring before traffic needs the factors; the shards' caches make
	// the duplicate submits lookups, not refactors.
	f.rebalance()
	f.wg.Add(1)
	go f.prober()
	return f, nil
}

// Close stops the prober and pending re-replications. The shards are
// not touched — they belong to whoever started them.
func (f *Fleet) Close() {
	if !f.closed.CompareAndSwap(false, true) {
		return
	}
	close(f.stop)
	f.wg.Wait()
}

// probeWait is the jittered pause before the next probe sweep: the
// configured interval widened by up to ±probeJitter of itself, drawn
// from the seeded source. Fleets of coordinators started in the same
// millisecond drift apart instead of stampeding every shard's health
// endpoint in lockstep.
func (f *Fleet) probeWait() time.Duration {
	f.mu.Lock()
	u := f.rng.Float64()
	f.mu.Unlock()
	return jitterInterval(f.cfg.ProbeInterval, probeJitter, u)
}

// jitterInterval spreads base over [base*(1-frac), base*(1+frac)] by
// the uniform draw u in [0,1).
func jitterInterval(base time.Duration, frac, u float64) time.Duration {
	return time.Duration(float64(base) * (1 + frac*(2*u-1)))
}

// prober walks every member each tick, concurrently: a wedged member
// must not delay the detection of the next one. Ticks are jittered
// (probeWait) so coordinator fleets desynchronize.
func (f *Fleet) prober() {
	defer f.wg.Done()
	t := time.NewTimer(f.probeWait())
	defer t.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-t.C:
			var wg sync.WaitGroup
			for _, mb := range f.members {
				wg.Add(1)
				go func(mb *member) {
					defer wg.Done()
					f.probe(mb)
				}(mb)
			}
			wg.Wait()
			t.Reset(f.probeWait())
		}
	}
}

// probe runs one health check and feeds the membership state machine.
// A shard that answers but reports a non-ok status (draining) counts
// as down: it is leaving on purpose and must exit the ring.
func (f *Fleet) probe(mb *member) {
	f.m.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.ProbeTimeout)
	defer cancel()
	probedAt := time.Now()
	res, err := mb.sh.Health(ctx)
	if err == nil && res.Status != "ok" {
		err = fmt.Errorf("%w: %s: shard reports %q", ErrUnreachable, mb.sh.Addr(), res.Status)
	}
	if err != nil {
		f.m.probeFails.Add(1)
		f.noteFailure(mb, time.Now())
		return
	}
	if mb.reviveOnProbe(probedAt, time.Now()) {
		f.m.rejoins.Add(1)
		f.rebalance()
	}
}

// noteResult feeds one request outcome into the membership state
// machine. Only silence counts against health — transport failures and
// missed deadlines; an error the shard itself returned (even a shed or
// a refusal to admit) is a live shard making a decision. Our own
// cancellation says nothing about the member. Resurrection of dead
// members is the prober's job alone: it is the only observer that can
// tell a restarted shard from a drained one still answering.
func (f *Fleet) noteResult(mb *member, err error) {
	now := time.Now()
	switch {
	case err == nil:
		mb.reportSuccess(now)
	case errors.Is(err, ErrUnreachable) || errors.Is(err, context.DeadlineExceeded):
		f.noteFailure(mb, now)
	case errors.Is(err, context.Canceled):
		// hedge loser or caller gave up; no health signal either way
	default:
		// the shard answered: it is alive
		mb.reportSuccess(now)
	}
}

// noteFailure counts one failed probe or unanswered request against
// the member; the failure that kills it rebalances the fleet.
func (f *Fleet) noteFailure(mb *member, now time.Time) {
	if mb.reportFailure(f.cfg.SuspectAfter, f.cfg.DeadAfter, now) {
		f.m.deaths.Add(1)
		f.rebalance()
	}
}

// rebalance follows every membership change — a death, a rejoin, a
// drain: rebuild placement, then re-replicate the registry under the
// new ring so every pattern's factors exist at its (possibly new)
// owner and replicas before traffic needs them.
func (f *Fleet) rebalance() {
	f.rebuildRing()
	f.rereplicateWhere(func(uint64) bool { return true })
}

// liveRing computes the ring over the non-dead members.
func (f *Fleet) liveRing() *fleet.Ring {
	ids := make([]int, 0, len(f.members))
	for _, mb := range f.members {
		if mb.currentState() != StateDead {
			ids = append(ids, mb.id)
		}
	}
	return fleet.NewRing(ids, f.cfg.VNodes)
}

// rebuildRing swaps in the ring over the non-dead members. Serialized
// under mu so a stale membership read cannot overwrite a newer ring.
func (f *Fleet) rebuildRing() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ring.Store(f.liveRing())
	f.ringGen.Add(1)
	f.m.rebuilds.Add(1)
}

// rereplicateWhere re-submits the registered patterns selected by keep
// to their placement under the current ring, in the background:
// factors appear at their new owners ahead of the traffic that will
// want them, and members already holding them answer from cache (the
// serve layer's factor cache makes a duplicate submit a lookup, not a
// refactorization). The registry key already carries the pattern
// fingerprint (Handle.Key.Pattern), so selection costs no matrix
// assembly.
func (f *Fleet) rereplicateWhere(keep func(pattern uint64) bool) {
	if f.closed.Load() {
		return
	}
	entries := f.registry.Since(0)
	if len(entries) == 0 {
		return
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for _, e := range entries {
			if !keep(e.Handle.Key.Pattern) {
				continue
			}
			select {
			case <-f.stop:
				return
			default:
			}
			var buf [maxReplication]*member
			n := f.placementInto(buf[:], e.Handle.Key.Pattern)
			_, errs := f.populate(context.Background(), buf[:n], e.Matrix)
			for _, err := range errs[:n] {
				if err == nil {
					f.m.rereplicated.Add(1)
				}
			}
		}
	}()
}

// populate sends the registered frame m to every member of a placement
// at once and returns after all of them have answered: the owner's
// (placement[0]'s) handle, and each member's error at its index. Under
// static pivoting each member's factorization depends on nothing but m,
// so owner and replicas factor side by side.
func (f *Fleet) populate(ctx context.Context, placement []*member, m Matrix) (h serve.Handle, errs [maxReplication]error) {
	var wg sync.WaitGroup
	for i := 1; i < len(placement); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = f.submitTo(ctx, placement[i], m)
		}()
	}
	if len(placement) > 0 {
		h, errs[0] = f.submitTo(ctx, placement[0], m)
	}
	wg.Wait()
	return h, errs
}

// submitTo factors m on mb under the submit deadline.
func (f *Fleet) submitTo(ctx context.Context, mb *member, m Matrix) (serve.Handle, error) {
	sctx, cancel := context.WithTimeout(ctx, submitTimeout)
	defer cancel()
	h, err := mb.sh.Submit(sctx, m)
	f.noteResult(mb, err)
	return h, err
}

// replWidth is a pattern's current placement width: the configured
// replication plus any controller boost, capped at maxReplication.
func (f *Fleet) replWidth(pattern uint64) int {
	w := f.cfg.Replication
	f.mu.Lock()
	w += f.replBoost[pattern]
	f.mu.Unlock()
	if w > maxReplication {
		w = maxReplication
	}
	return w
}

// PromotePattern widens pattern's placement by extra replicas (capped
// at maxReplication total) and re-factors it onto the new placement in
// the background. The SLO controller calls this when the tail breaches;
// it is idempotent at a given width.
func (f *Fleet) PromotePattern(pattern uint64, extra int) {
	if extra < 0 {
		extra = 0
	}
	f.mu.Lock()
	prev := f.replBoost[pattern]
	if extra == 0 {
		delete(f.replBoost, pattern)
	} else {
		f.replBoost[pattern] = extra
	}
	f.mu.Unlock()
	if extra > prev {
		f.m.promotions.Add(1)
		f.rereplicateWhere(func(p uint64) bool { return p == pattern })
	}
}

// DemotePattern restores pattern's placement to the configured
// replication. No data moves: the extra replicas simply stop being
// placed, and their cached factors age out of the shards' LRUs.
func (f *Fleet) DemotePattern(pattern uint64) {
	f.mu.Lock()
	_, had := f.replBoost[pattern]
	delete(f.replBoost, pattern)
	f.mu.Unlock()
	if had {
		f.m.demotions.Add(1)
	}
}

// HotPatterns returns up to k patterns by routed-solve count in the
// window since its previous call (since New, on the first), descending,
// ties broken by pattern value so the order is deterministic, and
// starts a new window. A pattern not routed in the window is left out.
func (f *Fleet) HotPatterns(k int) []uint64 {
	type pc struct {
		p uint64
		c uint64
	}
	var all []pc
	f.pop.Range(func(p, c any) bool {
		all = append(all, pc{p.(uint64), c.(*atomic.Uint64).Load()})
		return true
	})
	f.popMu.Lock()
	win := all[:0]
	for _, e := range all {
		// A concurrent call may have read later counts and recorded them
		// first; its window already holds these solves.
		if seen := f.popSeen[e.p]; e.c > seen {
			f.popSeen[e.p] = e.c
			win = append(win, pc{e.p, e.c - seen})
		}
	}
	f.popMu.Unlock()
	all = win
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].p < all[j].p
	})
	if k > len(all) {
		k = len(all)
	}
	out := make([]uint64, k)
	for i := 0; i < k; i++ {
		out[i] = all[i].p
	}
	return out
}

// healthiestFirst is the order members are preferred in: alive, then
// suspect. Dead members are never placed.
var healthiestFirst = [...]MemberState{StateAlive, StateSuspect}

// placementInto writes the pattern's placement — healthiest first —
// into dst and returns how many entries it wrote. The ring (which
// excludes dead members) proposes owner + successors; alive members
// sort before suspects so a flapping shard serves only when nothing
// better holds the factors.
func (f *Fleet) placementInto(dst []*member, pattern uint64) int {
	ring := f.ring.Load()
	var ids [maxReplication]int
	rf := f.replWidth(pattern)
	n := ring.ReplicasInto(ids[:rf], pattern)
	k := 0
	for _, want := range healthiestFirst {
		for i := 0; i < n && k < len(dst); i++ {
			if mb := f.members[ids[i]]; mb.currentState() == want {
				dst[k] = mb
				k++
			}
		}
	}
	return k
}

// sleep pauses for the retry schedule's next wait (attempt counts
// retries, 0 = first retry), honoring the shard's Retry-After hint and
// the caller's context. sick is the failed member's consecutive-failure
// count: a member that has been failing for a while is charged extra
// schedule steps (capped at backoffSickCap) so retries against it back
// off to the ceiling quickly — and because the count resets on the
// member's first success, a recovered shard's next transient error
// starts the schedule from Base again.
func (f *Fleet) sleep(ctx context.Context, attempt, sick int, retryAfter time.Duration) error {
	f.mu.Lock()
	u := f.rng.Float64()
	f.mu.Unlock()
	if sick > backoffSickCap {
		sick = backoffSickCap
	}
	return Sleep(ctx, f.cfg.Retry.Wait(attempt+sick, u, retryAfter))
}

// Submit registers a system with the fleet: the matrix is factored on
// its pattern's owner and replicas at once, and — once the owner has
// it — kept in the router's registry for healing, re-replication, and
// the degraded path.
func (f *Fleet) Submit(ctx context.Context, m Matrix) (serve.Handle, error) {
	if f.closed.Load() {
		return serve.Handle{}, serve.ErrClosed
	}
	a, err := m.CSC()
	if err != nil {
		return serve.Handle{}, err
	}
	pattern := sparse.PatternHash(a)
	var lastErr error
	var lastSick int
	for attempt := 0; attempt < f.cfg.Retry.Attempts; attempt++ {
		if attempt > 0 {
			f.m.retries.Add(1)
			if err := f.sleep(ctx, attempt-1, lastSick, RetryAfterHint(lastErr)); err != nil {
				return serve.Handle{}, err
			}
		}
		var buf [maxReplication]*member
		n := f.placementInto(buf[:], pattern)
		if n == 0 {
			lastErr = ErrNoLiveShards
			lastSick = 0
			continue
		}
		// Replica errors are not read: replica population is best-effort;
		// the owner holds the factors and re-replication retries on the
		// next membership change.
		h, errs := f.populate(ctx, buf[:n], m)
		if err := errs[0]; err != nil {
			lastErr = err
			lastSick = buf[0].failureCount()
			if !Retryable(err) {
				return serve.Handle{}, err
			}
			continue
		}
		f.registry.Put(RegistryEntry{Handle: h, Matrix: m})
		return h, nil
	}
	return serve.Handle{}, lastErr
}

// Solve routes one right-hand side through the full resilience
// ladder: placement on the live ring, hedged against the first replica
// under the hedge budget, failed over on fast errors, retried with
// jittered backoff (honoring Retry-After) on retryable ones, healed by
// re-submit on eviction, and — when every placement is gone — answered
// by the degraded iterative path on any live member.
func (f *Fleet) Solve(ctx context.Context, h serve.Handle, b []float64) ([]float64, error) {
	return route(f, ctx, h, b, Shard.Solve, func(ctx context.Context) ([]float64, error) {
		return f.solveDegraded(ctx, h, b)
	})
}

// SolveWire is Solve on an encoded /v1/solve body, answered with the
// shard's encoded response: the coordinator routes on h and forwards
// bytes through the same ladder. Only the degraded rung, when it is
// reached, decodes b.
func (f *Fleet) SolveWire(ctx context.Context, h serve.Handle, body []byte) ([]byte, error) {
	return route(f, ctx, h, body, Shard.SolveWire, func(ctx context.Context) ([]byte, error) {
		req, err := DecodeSolveRequest(body)
		if err != nil {
			return nil, fmt.Errorf("bad /v1/solve body: %w", err)
		}
		x, err := f.solveDegraded(ctx, h, req.B)
		if err != nil {
			return nil, err
		}
		return encodeSolution(x)
	})
}

// route is the resilience ladder behind Solve and SolveWire, written
// once over the payload: b and x in-process, the encoded request and
// response bodies on the HTTP route. leg solves on one member;
// degraded is the bottom rung.
func route[P payload](f *Fleet, ctx context.Context, h serve.Handle, b P,
	leg func(Shard, context.Context, serve.Handle, P) (P, error), degraded func(context.Context) (P, error)) (P, error) {
	var none P
	if f.closed.Load() {
		return none, serve.ErrClosed
	}
	t0 := time.Now()
	f.m.routed.Add(1)
	c, ok := f.pop.Load(h.Key.Pattern)
	if !ok {
		c, _ = f.pop.LoadOrStore(h.Key.Pattern, new(atomic.Uint64))
	}
	c.(*atomic.Uint64).Add(1)
	f.hedge.Accrue()
	var lastErr error
	var lastSick int
	healed := false
	for attempt := 0; attempt < f.cfg.Retry.Attempts; attempt++ {
		// A heal has already cured what failed the last attempt: go
		// straight around, there is nothing to back off from.
		if attempt > 0 && !healed {
			f.m.retries.Add(1)
			if err := f.sleep(ctx, attempt-1, lastSick, RetryAfterHint(lastErr)); err != nil {
				f.m.failed.Add(1)
				return none, err
			}
		}
		healed = false
		var buf [maxReplication]*member
		n := f.placementInto(buf[:], h.Key.Pattern)
		if n == 0 {
			lastErr = ErrNoLiveShards
			lastSick = 0
			continue
		}
		primary := buf[0]
		var replica *member
		if n > 1 {
			replica = buf[1]
		}
		x, err := solvePlaced(f, ctx, primary, replica, h, b, leg)
		if err == nil {
			f.lat.Observe(time.Since(t0))
			return x, nil
		}
		lastErr = err
		lastSick = primary.failureCount()
		switch {
		case Expired(err):
			// Factors evicted (or the shard restarted empty): re-factor
			// from the registry and go around — without burning the
			// request on an error the next attempt can cure. A heal that
			// ran into a draining or dying owner backs off and goes around
			// too: the next attempt places it on the ring that replaces
			// that owner.
			switch herr := f.heal(ctx, h); {
			case herr == nil:
				f.m.resubmits.Add(1)
				healed = true
			case Retryable(herr):
				lastErr = herr
			default:
				f.m.failed.Add(1)
				return none, err
			}
		case !Retryable(err):
			f.m.failed.Add(1)
			return none, err
		}
	}
	if f.cfg.DegradedFallback {
		if x, derr := degraded(ctx); derr == nil {
			f.m.degraded.Add(1)
			f.lat.Observe(time.Since(t0))
			return x, nil
		}
	}
	f.m.failed.Add(1)
	return none, lastErr
}

// payload is what the solve ladder carries: a right-hand side and its
// solution in-process, or the encoded request and response bodies.
type payload interface{ []float64 | []byte }

// placedResult is one leg of a placed attempt.
type placedResult[P payload] struct {
	x    P
	err  error
	from *member
}

// solvePlaced runs one attempt against a placement: the primary,
// raced after HedgeAfter by a budget-gated hedge to the replica, with
// an immediate failover to the replica when the primary fails fast
// with a retryable error. First success wins; the loser's wait is
// cancelled with the attempt context.
func solvePlaced[P payload](f *Fleet, ctx context.Context, primary, replica *member, h serve.Handle, b P,
	leg func(Shard, context.Context, serve.Handle, P) (P, error)) (P, error) {
	var none P
	actx, cancel := context.WithTimeout(ctx, f.cfg.RequestTimeout)
	defer cancel()
	ch := make(chan placedResult[P], 2)
	launch := func(mb *member) {
		mb.inflight.Add(1)
		x, err := leg(mb.sh, actx, h, b)
		mb.inflight.Add(-1)
		f.noteResult(mb, err)
		ch <- placedResult[P]{x: x, err: err, from: mb}
	}
	go launch(primary)
	inFlight := 1
	hedged := false
	var hedgeC <-chan time.Time
	if replica != nil && f.cfg.HedgeAfter > 0 {
		t := time.NewTimer(f.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	var primErr error
	for {
		select {
		case r := <-ch:
			inFlight--
			if r.err == nil {
				if hedged && r.from == replica {
					f.m.hedgeWins.Add(1)
				}
				return r.x, nil
			}
			if r.from == primary {
				primErr = r.err
				if replica != nil && inFlight == 0 && Retryable(r.err) && actx.Err() == nil {
					// primary failed fast and the replica was never tried:
					// fail over now, inside the same attempt — no backoff,
					// no hedge token.
					f.m.failovers.Add(1)
					hedgeC = nil
					go launch(replica)
					inFlight++
					continue
				}
			}
			if inFlight == 0 {
				if primErr != nil {
					// the primary's error is the one the retry ladder
					// classifies (overload, eviction, unreachable)
					return none, primErr
				}
				return none, r.err
			}
		case <-hedgeC:
			hedgeC = nil
			if f.hedge.TryStake() {
				f.m.hedged.Add(1)
				hedged = true
				go launch(replica)
				inFlight++
			}
		}
	}
}

// heal re-factors an evicted handle at its current owner from the
// registered matrix.
func (f *Fleet) heal(ctx context.Context, h serve.Handle) error {
	m, ok := f.registry.Get(h)
	if !ok {
		return fmt.Errorf("fleetrpc: handle %v has no registered matrix", h.Key)
	}
	var buf [maxReplication]*member
	n := f.placementInto(buf[:], h.Key.Pattern)
	if n == 0 {
		return ErrNoLiveShards
	}
	_, err := f.submitTo(ctx, buf[0], m)
	return err
}

// solveDegraded is the bottom of the ladder: ship the registered
// matrix to any live member's iterative path. Tried healthiest-first
// over every member (placement no longer matters — there is no cache
// to hit).
func (f *Fleet) solveDegraded(ctx context.Context, h serve.Handle, b []float64) ([]float64, error) {
	m, ok := f.registry.Get(h)
	if !ok {
		return nil, fmt.Errorf("fleetrpc: handle %v has no registered matrix", h.Key)
	}
	lastErr := error(ErrNoLiveShards)
	for _, want := range healthiestFirst {
		for _, mb := range f.members {
			if mb.currentState() != want {
				continue
			}
			dctx, cancel := context.WithTimeout(ctx, submitTimeout)
			x, err := mb.sh.SolveDegraded(dctx, m, b)
			cancel()
			f.noteResult(mb, err)
			if err == nil {
				return x, nil
			}
			lastErr = err
			if ctx.Err() != nil {
				return nil, lastErr
			}
		}
	}
	return nil, lastErr
}

// Drain administratively removes member id: its shard closes
// admission and finishes its queued solves (Handoff), the member is
// marked dead, and the rebalance re-homes every registered pattern onto
// the post-drain ring from the registry. Requests that race the drain
// see a closed shard, back off, and land on the new ring, healing from
// the registry where the re-home has not reached yet. Drains run one at
// a time and count live members by state, so concurrent drains can
// never retire the last one between them. The shard itself stays up,
// answering "draining" to probes, until its owner stops it.
func (f *Fleet) Drain(ctx context.Context, id int) error {
	f.drainMu.Lock()
	defer f.drainMu.Unlock()
	if id < 0 || id >= len(f.members) {
		return fmt.Errorf("fleetrpc: no member %d", id)
	}
	mb := f.members[id]
	if mb.currentState() == StateDead {
		return fmt.Errorf("fleetrpc: member %d is already dead or drained", id)
	}
	live := 0
	for _, other := range f.members {
		if other.currentState() != StateDead {
			live++
		}
	}
	if live < 2 {
		return errors.New("fleetrpc: cannot drain the last live member")
	}
	if err := mb.sh.Handoff(ctx); err != nil {
		return err
	}
	mb.markDead(time.Now())
	f.m.drains.Add(1)
	f.rebalance()
	return nil
}

// Members snapshots every member's health state.
func (f *Fleet) Members() []MemberStatus {
	out := make([]MemberStatus, 0, len(f.members))
	for _, mb := range f.members {
		out = append(out, mb.status())
	}
	return out
}

// Addrs lists every member's address, id order — dead ones included,
// so the HA layer can stream the full topology to followers.
func (f *Fleet) Addrs() []string {
	out := make([]string, len(f.members))
	for i, mb := range f.members {
		out[i] = mb.sh.Addr()
	}
	return out
}

// DeadIDs lists the members currently dead or drained, ascending.
func (f *Fleet) DeadIDs() []int {
	var out []int
	for _, mb := range f.members {
		if mb.currentState() == StateDead {
			out = append(out, mb.id)
		}
	}
	return out
}

// Ring exposes the current placement ring (tests, experiments).
func (f *Fleet) Ring() *fleet.Ring { return f.ring.Load() }

// Owner is the id of the member that owns pattern (-1 when none is
// live) — what a submit response reports and POST /v1/drain accepts.
func (f *Fleet) Owner(pattern uint64) int { return f.ring.Load().Owner(pattern) }

// RingGen counts ring swaps — the membership epoch the HA layer
// streams to follower coordinators.
func (f *Fleet) RingGen() uint64 { return f.ringGen.Load() }

// LatSnapshot copies the fleet-wide latency histogram; the SLO
// controller diffs consecutive snapshots into per-window quantiles.
func (f *Fleet) LatSnapshot() (counts [fleet.LatBuckets]uint64, total uint64) {
	return f.lat.Snapshot()
}

// Stats snapshots the router counters and membership.
func (f *Fleet) Stats() Stats {
	s := f.m.snapshot()
	s.HedgeStaked, s.HedgeDenied = f.hedge.Counts()
	s.Members = f.Members()
	s.RingGen = f.ringGen.Load()
	s.RegistryLen = f.registry.Len()
	f.mu.Lock()
	s.Promoted = len(f.replBoost)
	f.mu.Unlock()
	s.P50 = f.lat.Quantile(0.50)
	s.P99 = f.lat.Quantile(0.99)
	s.P999 = f.lat.Quantile(0.999)
	return s
}
