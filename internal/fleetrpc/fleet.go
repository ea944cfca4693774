package fleetrpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	// ProbeJitter widens each prober tick by up to ±this fraction of
	// ProbeInterval, so N coordinators started together do not
	// synchronize their probe bursts against the same shard. 0 takes
	// 0.2; negative disables jitter (tests that count exact ticks).
	ProbeJitter float64
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
	// SubmitTimeout bounds one matrix submit (30s when <=0): a cold
	// submit runs analysis and numeric factorization, legitimately far
	// slower than any solve.
	SubmitTimeout time.Duration

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

	// SeedRegistry pre-populates the wire-matrix registry. This is the
	// HA takeover path: a follower coordinator that wins an election
	// rebuilds its Fleet with the registry its leader streamed to it, so
	// every handle the old leader ever acked survives the failover. The
	// new coordinator re-replicates the seeded patterns in the
	// background at startup.
	SeedRegistry map[serve.Handle]MatrixRequest
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
	switch {
	case c.ProbeJitter == 0:
		c.ProbeJitter = 0.2
	case c.ProbeJitter < 0:
		c.ProbeJitter = 0
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
	if c.SubmitTimeout <= 0 {
		c.SubmitTimeout = 30 * time.Second
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

	// members is the membership table, copy-on-write: AddMember swaps in
	// an extended copy so readers (prober, placement) iterate a
	// consistent snapshot without a lock. Member ids are indexes and
	// never change; existing *member values are shared between copies.
	members atomic.Pointer[[]*member]

	// ring is the current placement over non-dead member ids;
	// immutable, rebuilt and swapped atomically on every membership
	// change so the routing path takes no lock. ringGen counts swaps —
	// the generation the HA layer streams to follower coordinators.
	ring    atomic.Pointer[fleet.Ring]
	ringGen atomic.Uint64

	mu sync.Mutex
	// registry keeps every submitted system in wire form: the router
	// re-sends it to heal evictions, to re-replicate after a membership
	// change, and to feed the degraded path.
	//gesp:guardedby:mu
	registry map[serve.Handle]MatrixRequest
	// replBoost widens a single pattern's placement beyond
	// cfg.Replication (pattern -> extra replicas) — the SLO controller's
	// promote/demote knob.
	//gesp:guardedby:mu
	replBoost map[uint64]int
	// popCount counts routed solves per pattern, feeding HotPatterns.
	//gesp:guardedby:mu
	popCount map[uint64]uint64
	// rng drives retry and probe jitter; seeded so schedules reproduce,
	// guarded because rand.Rand is not concurrency-safe.
	//gesp:guardedby:mu
	rng *rand.Rand

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
	now := time.Now()
	f := &Fleet{
		cfg:       cfg,
		hedge:     fleet.NewHedgeBudget(cfg.HedgeBudget, cfg.HedgeBurst),
		registry:  make(map[serve.Handle]MatrixRequest),
		replBoost: make(map[uint64]int),
		popCount:  make(map[uint64]uint64),
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
	f.members.Store(&members)
	//gesp:unordered — map copy into the registry; placement derives from each key alone
	for h, w := range cfg.SeedRegistry {
		f.registry[h] = w
	}
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

// memberList snapshots the copy-on-write membership table. Ids are
// stable indexes into the snapshot.
func (f *Fleet) memberList() []*member { return *f.members.Load() }

// AddMember grows the fleet with a new shard and returns its id. The
// ring rebuild places it immediately; the background re-replication
// then moves the patterns it now owns onto it. This is the SLO
// controller's scale-up knob.
func (f *Fleet) AddMember(sh Shard) (int, error) {
	if f.closed.Load() {
		return 0, serve.ErrClosed
	}
	f.mu.Lock()
	old := f.memberList()
	id := len(old)
	grown := make([]*member, id+1)
	copy(grown, old)
	grown[id] = newMember(id, sh, time.Now())
	f.members.Store(&grown)
	f.mu.Unlock()
	f.m.scaleUps.Add(1)
	f.rebalance()
	return id, nil
}

// probeWait is the jittered pause before the next probe sweep: the
// configured interval widened by up to ±ProbeJitter of itself, drawn
// from the seeded source. Fleets of coordinators started in the same
// millisecond drift apart instead of stampeding every shard's health
// endpoint in lockstep.
func (f *Fleet) probeWait() time.Duration {
	if f.cfg.ProbeJitter == 0 {
		return f.cfg.ProbeInterval
	}
	f.mu.Lock()
	u := f.rng.Float64()
	f.mu.Unlock()
	return jitterInterval(f.cfg.ProbeInterval, f.cfg.ProbeJitter, u)
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
			for _, mb := range f.memberList() {
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
	mb.noteHealth(res)
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
// drain, a new member: rebuild placement, then re-replicate the
// registry under the new ring so every pattern's factors exist at its
// (possibly new) owner and replicas before traffic needs them.
func (f *Fleet) rebalance() {
	f.rebuildRing()
	f.rereplicateWhere(func(uint64) bool { return true })
}

// liveRing computes the ring over the non-dead members.
func (f *Fleet) liveRing() *fleet.Ring {
	members := f.memberList()
	ids := make([]int, 0, len(members))
	for _, mb := range members {
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
// want them, and members already holding them — from before, or from a
// drain's Import — answer from cache (the serve layer's factor cache
// makes a duplicate submit a lookup, not a refactorization). The
// registry key already carries the pattern fingerprint
// (Handle.Key.Pattern), so selection costs no matrix assembly.
func (f *Fleet) rereplicateWhere(keep func(pattern uint64) bool) {
	if f.closed.Load() {
		return
	}
	type entry struct {
		pattern uint64
		wire    MatrixRequest
	}
	f.mu.Lock()
	entries := make([]entry, 0, len(f.registry))
	//gesp:unordered — each pattern re-homes independently; placement order is irrelevant
	for h, w := range f.registry {
		if keep(h.Key.Pattern) {
			entries = append(entries, entry{pattern: h.Key.Pattern, wire: w})
		}
	}
	f.mu.Unlock()
	if len(entries) == 0 {
		return
	}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for _, e := range entries {
			select {
			case <-f.stop:
				return
			default:
			}
			var buf [maxReplication]*member
			n := f.placementInto(buf[:], e.pattern)
			for i := 0; i < n; i++ {
				if _, err := f.submitTo(context.Background(), buf[i], buf[0], e.pattern, e.wire); err == nil {
					f.m.rereplicated.Add(1)
				}
			}
		}
	}()
}

// submitTo factors wire on mb. When donor is another member, its
// analysis of the pattern is offered to mb first, so a replica that can
// adopt it (one sharing the donor's address space) skips re-analysis.
func (f *Fleet) submitTo(ctx context.Context, mb, donor *member, pattern uint64, wire MatrixRequest) (serve.Handle, error) {
	sctx, cancel := context.WithTimeout(ctx, f.cfg.SubmitTimeout)
	defer cancel()
	if donor != mb {
		if exp, err := donor.sh.ExportSymbolic(sctx, pattern); err == nil {
			//gesp:errok — sharing the analysis is an optimization; the submit below re-analyzes without it
			_, _ = mb.sh.Import(sctx, exp)
		}
	}
	h, err := mb.sh.Submit(sctx, wire)
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

// Boosted lists the currently promoted patterns (ascending, for
// deterministic output).
func (f *Fleet) Boosted() []uint64 {
	f.mu.Lock()
	out := make([]uint64, 0, len(f.replBoost))
	//gesp:unordered — sorted below
	for p := range f.replBoost {
		out = append(out, p)
	}
	f.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HotPatterns returns up to k patterns by routed-solve count,
// descending, ties broken by pattern value so the order is
// deterministic.
func (f *Fleet) HotPatterns(k int) []uint64 {
	type pc struct {
		p uint64
		c uint64
	}
	f.mu.Lock()
	all := make([]pc, 0, len(f.popCount))
	//gesp:unordered — sorted below
	for p, c := range f.popCount {
		all = append(all, pc{p, c})
	}
	f.mu.Unlock()
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
	members := f.memberList()
	var ids [maxReplication]int
	rf := f.replWidth(pattern)
	n := ring.ReplicasInto(ids[:rf], pattern)
	k := 0
	for _, want := range healthiestFirst {
		for i := 0; i < n && k < len(dst); i++ {
			if mb := members[ids[i]]; mb.currentState() == want {
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
// its pattern's owner and replicas, and kept in the router's registry
// for healing, re-replication, and the degraded path.
func (f *Fleet) Submit(ctx context.Context, wire MatrixRequest) (serve.Handle, error) {
	if f.closed.Load() {
		return serve.Handle{}, serve.ErrClosed
	}
	a, err := AssembleMatrix(wire)
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
		h, err := f.submitTo(ctx, buf[0], buf[0], pattern, wire)
		if err != nil {
			lastErr = err
			lastSick = buf[0].failureCount()
			if !Retryable(err) {
				return serve.Handle{}, err
			}
			continue
		}
		f.mu.Lock()
		f.registry[h] = wire
		f.mu.Unlock()
		for i := 1; i < n; i++ {
			//gesp:errok — replica population is best-effort; the owner holds the factors and re-replication retries on the next membership change
			_, _ = f.submitTo(ctx, buf[i], buf[0], pattern, wire)
		}
		return h, nil
	}
	return serve.Handle{}, lastErr
}

// Registry snapshots the wire-matrix registry — the state the HA layer
// replicates to follower coordinators so a takeover loses no handles.
func (f *Fleet) Registry() map[serve.Handle]MatrixRequest {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[serve.Handle]MatrixRequest, len(f.registry))
	//gesp:unordered — map copy; the replication layer tracks per-handle acks, not order
	for h, w := range f.registry {
		out[h] = w
	}
	return out
}

// RegistryLen is the number of registered systems.
func (f *Fleet) RegistryLen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.registry)
}

// Solve routes one right-hand side through the full resilience
// ladder: placement on the live ring, hedged against the first replica
// under the hedge budget, failed over on fast errors, retried with
// jittered backoff (honoring Retry-After) on retryable ones, healed by
// re-submit on eviction, and — when every placement is gone — answered
// by the degraded iterative path on any live member.
func (f *Fleet) Solve(ctx context.Context, h serve.Handle, b []float64) ([]float64, error) {
	if f.closed.Load() {
		return nil, serve.ErrClosed
	}
	t0 := time.Now()
	f.m.routed.Add(1)
	f.mu.Lock()
	f.popCount[h.Key.Pattern]++
	f.mu.Unlock()
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
				return nil, err
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
		x, err := f.solvePlaced(ctx, primary, replica, h, b)
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
				return nil, err
			}
		case !Retryable(err):
			f.m.failed.Add(1)
			return nil, err
		}
	}
	if f.cfg.DegradedFallback {
		if x, derr := f.solveDegraded(ctx, h, b); derr == nil {
			f.m.degraded.Add(1)
			f.lat.Observe(time.Since(t0))
			return x, nil
		}
	}
	f.m.failed.Add(1)
	return nil, lastErr
}

// placedResult is one leg of a placed attempt.
type placedResult struct {
	x    []float64
	err  error
	from *member
}

// solvePlaced runs one attempt against a placement: the primary,
// raced after HedgeAfter by a budget-gated hedge to the replica, with
// an immediate failover to the replica when the primary fails fast
// with a retryable error. First success wins; the loser's wait is
// cancelled with the attempt context.
func (f *Fleet) solvePlaced(ctx context.Context, primary, replica *member, h serve.Handle, b []float64) ([]float64, error) {
	actx, cancel := context.WithTimeout(ctx, f.cfg.RequestTimeout)
	defer cancel()
	ch := make(chan placedResult, 2)
	launch := func(mb *member) {
		mb.inflight.Add(1)
		x, err := mb.sh.Solve(actx, h, b)
		mb.inflight.Add(-1)
		f.noteResult(mb, err)
		ch <- placedResult{x: x, err: err, from: mb}
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
					return nil, primErr
				}
				return nil, r.err
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
// registered wire matrix.
func (f *Fleet) heal(ctx context.Context, h serve.Handle) error {
	f.mu.Lock()
	wire, ok := f.registry[h]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleetrpc: handle %v has no registered matrix", h.Key)
	}
	var buf [maxReplication]*member
	n := f.placementInto(buf[:], h.Key.Pattern)
	if n == 0 {
		return ErrNoLiveShards
	}
	_, err := f.submitTo(ctx, buf[0], buf[0], h.Key.Pattern, wire)
	return err
}

// solveDegraded is the bottom of the ladder: ship the registered
// matrix to any live member's iterative path. Tried healthiest-first
// over every member (placement no longer matters — there is no cache
// to hit).
func (f *Fleet) solveDegraded(ctx context.Context, h serve.Handle, b []float64) ([]float64, error) {
	f.mu.Lock()
	wire, ok := f.registry[h]
	f.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("fleetrpc: handle %v has no registered matrix", h.Key)
	}
	lastErr := error(ErrNoLiveShards)
	for _, want := range healthiestFirst {
		for _, mb := range f.memberList() {
			if mb.currentState() != want {
				continue
			}
			dctx, cancel := context.WithTimeout(ctx, f.cfg.SubmitTimeout)
			x, err := mb.sh.SolveDegraded(dctx, wire, b)
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

// Drain administratively removes member id: its shard finishes queued
// work and closes admission (Handoff), every cache entry its export
// carries is adopted by the member that replaces the leaver in that
// entry's placement under the post-drain ring — no numeric work — and
// only then does the ring drop the leaver. Requests that race the
// handoff see a closed shard, back off, and land on the new ring, where
// the factors already are. Whatever the export could not carry
// re-factors onto the survivors from the registry. The shard itself
// stays up, answering "draining" to probes, until its owner stops it.
func (f *Fleet) Drain(ctx context.Context, id int) error {
	members := f.memberList()
	if id < 0 || id >= len(members) {
		return fmt.Errorf("fleetrpc: no member %d", id)
	}
	mb := members[id]
	if mb.currentState() == StateDead {
		return fmt.Errorf("fleetrpc: member %d is already dead or drained", id)
	}
	if len(f.ring.Load().Shards()) < 2 {
		return errors.New("fleetrpc: cannot drain the last live member")
	}
	exp, err := mb.sh.Handoff(ctx)
	if err != nil {
		return err
	}
	mb.markDead(time.Now())
	f.m.drains.Add(1)
	// Dropping the leaver shifts each of its patterns' placements by one:
	// the survivors of the old placement already hold the entry, so it
	// goes to the one member the new placement adds.
	old, next := f.ring.Load(), f.liveRing()
	newcomer := func(pattern uint64) int {
		var was, now [maxReplication]int
		rf := f.replWidth(pattern)
		held := was[:old.ReplicasInto(was[:rf], pattern)]
		for _, id := range now[:next.ReplicasInto(now[:rf], pattern)] {
			if !slices.Contains(held, id) {
				return id
			}
		}
		return -1
	}
	parts := make([]serve.Export, len(members))
	for _, es := range exp.Symbolic {
		if o := newcomer(es.Pattern); o >= 0 {
			parts[o].Symbolic = append(parts[o].Symbolic, es)
		}
	}
	for _, ef := range exp.Factors {
		if o := newcomer(ef.Key.Pattern); o >= 0 {
			parts[o].Factors = append(parts[o].Factors, ef)
		}
	}
	for o, part := range parts {
		if len(part.Symbolic)+len(part.Factors) > 0 {
			//gesp:errok — adoption is best-effort; re-replication below re-factors whatever was not adopted
			n, _ := members[o].sh.Import(ctx, part)
			f.m.handedOff.Add(uint64(n))
		}
	}
	f.rebalance()
	return nil
}

// Members snapshots every member's health state.
func (f *Fleet) Members() []MemberStatus {
	now := time.Now()
	members := f.memberList()
	out := make([]MemberStatus, 0, len(members))
	for _, mb := range members {
		out = append(out, mb.status(now))
	}
	return out
}

// Addrs lists every member's address, id order — dead ones included,
// so the HA layer can stream the full topology to followers.
func (f *Fleet) Addrs() []string {
	members := f.memberList()
	out := make([]string, len(members))
	for i, mb := range members {
		out[i] = mb.sh.Addr()
	}
	return out
}

// DeadIDs lists the members currently dead or drained, ascending.
func (f *Fleet) DeadIDs() []int {
	var out []int
	for _, mb := range f.memberList() {
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

// MaxQueueDepth is the deepest member's MemberStatus.QueueDepth — the
// SLO controller's congestion signal.
func (f *Fleet) MaxQueueDepth() int64 {
	var depth int64
	for _, mb := range f.memberList() {
		if d := mb.queueDepth(); d > depth {
			depth = d
		}
	}
	return depth
}

// Stats snapshots the router counters and membership.
func (f *Fleet) Stats() Stats {
	s := f.m.snapshot()
	s.HedgeStaked, s.HedgeDenied = f.hedge.Counts()
	s.Members = f.Members()
	s.RingGen = f.ringGen.Load()
	f.mu.Lock()
	s.RegistryLen = len(f.registry)
	s.Promoted = len(f.replBoost)
	f.mu.Unlock()
	s.P50 = f.lat.Quantile(0.50)
	s.P99 = f.lat.Quantile(0.99)
	s.P999 = f.lat.Quantile(0.999)
	return s
}
