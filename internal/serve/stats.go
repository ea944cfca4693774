package serve

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"gesp/internal/resilience"
)

// Phase indexes the per-phase latency accounting. The phases partition a
// request's life the way mpisim partitions a simulated run into
// factor/solve/communication time: every nanosecond a request spends in
// the service is charged to exactly one phase.
type Phase int

const (
	// PhaseAnalyze is symbolic analysis (steps 1–2 + static structure)
	// for a pattern-cache miss.
	PhaseAnalyze Phase = iota
	// PhaseFactor is numeric factorization for a factor-cache miss.
	PhaseFactor
	// PhaseQueue is time a solve request waits in a batcher queue before
	// its batch is cut.
	PhaseQueue
	// PhaseSolve is the batched triangular sweep plus pack/unpack,
	// charged per batch.
	PhaseSolve
	numPhases
)

var phaseNames = [numPhases]string{"analyze", "factor", "queue", "solve"}

// String returns the phase's snake-case name.
func (p Phase) String() string { return phaseNames[p] }

// batchBuckets are the inclusive upper bounds of the batch-size
// histogram: 1, 2, 4, 8, 16, 32 and an overflow bucket.
var batchBuckets = [numBatchBuckets]int{1, 2, 4, 8, 16, 32}

const numBatchBuckets = 6

// Metrics is the service's accounting: lock-free atomic counters on the
// hot path, gathered into an immutable Stats snapshot on demand (the
// GatherStats idiom of mpisim). All counters are cumulative since the
// service started; QueueDepth is the only instantaneous gauge.
type Metrics struct {
	symHits   atomic.Uint64
	symMisses atomic.Uint64
	facHits   atomic.Uint64
	facMisses atomic.Uint64
	symEvicts atomic.Uint64
	facEvicts atomic.Uint64

	submits atomic.Uint64
	solves  atomic.Uint64
	batches atomic.Uint64
	shed    atomic.Uint64
	expired atomic.Uint64

	// Resilience accounting: which rung each ladder-driven solve ended
	// on, how many climbed, the cumulative above-rung-0 latency, and the
	// deadline counter of the serving layer itself.
	rungHist     [resilience.NumRungs]atomic.Uint64
	escalations  atomic.Uint64
	unrecovered  atomic.Uint64
	fallbackNs   atomic.Int64
	deadlineMiss atomic.Uint64

	queueDepth atomic.Int64

	batchHist [len(batchBuckets) + 1]atomic.Uint64

	phaseNs    [numPhases]atomic.Int64
	phaseCount [numPhases]atomic.Int64
}

// observePhase charges d to phase p.
func (m *Metrics) observePhase(p Phase, d time.Duration) {
	m.phaseNs[p].Add(d.Nanoseconds())
	m.phaseCount[p].Add(1)
}

// observeEscalation folds one ladder trace into the rung histogram and
// fallback-latency accounting; it is the OnTrace hook Service.New chains
// into the resilience policy.
func (m *Metrics) observeEscalation(e *resilience.Escalation) {
	if r := e.FinalRung; r >= 0 && int(r) < len(m.rungHist) {
		m.rungHist[r].Add(1)
	}
	if e.Escalated() {
		m.escalations.Add(1)
		m.fallbackNs.Add(int64(e.FallbackCost()))
	}
	if !e.Converged {
		m.unrecovered.Add(1)
	}
}

// observeBatch records one cut batch of k solves.
func (m *Metrics) observeBatch(k int) {
	m.batches.Add(1)
	m.solves.Add(uint64(k))
	for i, ub := range batchBuckets {
		if k <= ub {
			m.batchHist[i].Add(1)
			return
		}
	}
	m.batchHist[len(batchBuckets)].Add(1)
}

// PhaseStat is one phase's cumulative latency accounting.
type PhaseStat struct {
	Count   int64         `json:"count"`
	TotalNs int64         `json:"total_ns"`
	Mean    time.Duration `json:"mean_ns"`
}

// Stats is a consistent-enough snapshot of the service counters: each
// field is read atomically; the set is not a single linearization point,
// which is fine for monitoring.
type Stats struct {
	// Two-level cache accounting. A symbolic hit means a submitted
	// pattern skipped MC64/ordering/symbolic entirely; a factor hit
	// means the submitted (pattern, values) pair skipped numeric
	// factorization too.
	SymbolicHits      uint64 `json:"symbolic_hits"`
	SymbolicMisses    uint64 `json:"symbolic_misses"`
	FactorHits        uint64 `json:"factor_hits"`
	FactorMisses      uint64 `json:"factor_misses"`
	SymbolicEvictions uint64 `json:"symbolic_evictions"`
	FactorEvictions   uint64 `json:"factor_evictions"`

	Submits uint64 `json:"submits"`
	Solves  uint64 `json:"solves"`
	Batches uint64 `json:"batches"`
	// LoadShed counts solve requests rejected with ErrOverloaded because
	// their factor's queue was full; Expired counts solves rejected with
	// ErrHandleExpired after eviction.
	LoadShed uint64 `json:"load_shed"`
	Expired  uint64 `json:"expired"`

	// Resilience accounting (all zero unless the service runs with a
	// resilience policy). RungHist[r] counts ladder solves that ENDED on
	// rung r (RungNames gives the labels); Escalations counts solves
	// that climbed above rung 0; Unrecovered counts ladder exhaustions;
	// FallbackNs is the cumulative wall-clock spent above rung 0.
	// DeadlineMisses counts requests that outran their deadline.
	RungNames      []string `json:"rung_names,omitempty"`
	RungHist       []uint64 `json:"rung_hist,omitempty"`
	Escalations    uint64   `json:"escalations"`
	Unrecovered    uint64   `json:"unrecovered"`
	FallbackNs     int64    `json:"fallback_ns"`
	DeadlineMisses uint64   `json:"deadline_misses"`

	// QueueDepth is the instantaneous number of queued, not-yet-batched
	// solve requests across all factors.
	QueueDepth int64 `json:"queue_depth"`

	// Cache occupancy at snapshot time.
	SymbolicEntries int   `json:"symbolic_entries"`
	FactorEntries   int   `json:"factor_entries"`
	FactorBytes     int64 `json:"factor_bytes"`

	// BatchSizes is the histogram of cut batch sizes; bucket i counts
	// batches of size ≤ BatchBuckets[i], the last bucket is overflow.
	BatchBuckets []int    `json:"batch_buckets"`
	BatchSizes   []uint64 `json:"batch_sizes"`

	// Phases maps phase name → cumulative latency accounting.
	Phases map[string]PhaseStat `json:"phases"`
}

// snapshot gathers the counters.
func (m *Metrics) snapshot() Stats {
	s := Stats{
		SymbolicHits:      m.symHits.Load(),
		SymbolicMisses:    m.symMisses.Load(),
		FactorHits:        m.facHits.Load(),
		FactorMisses:      m.facMisses.Load(),
		SymbolicEvictions: m.symEvicts.Load(),
		FactorEvictions:   m.facEvicts.Load(),
		Submits:           m.submits.Load(),
		Solves:            m.solves.Load(),
		Batches:           m.batches.Load(),
		LoadShed:          m.shed.Load(),
		Expired:           m.expired.Load(),
		Escalations:       m.escalations.Load(),
		Unrecovered:       m.unrecovered.Load(),
		FallbackNs:        m.fallbackNs.Load(),
		DeadlineMisses:    m.deadlineMiss.Load(),
		QueueDepth:        m.queueDepth.Load(),
		BatchBuckets:      append([]int(nil), batchBuckets[:]...),
		BatchSizes:        make([]uint64, len(batchBuckets)+1),
		Phases:            make(map[string]PhaseStat, numPhases),
	}
	for i := range m.batchHist {
		s.BatchSizes[i] = m.batchHist[i].Load()
	}
	var rungTotal uint64
	hist := make([]uint64, resilience.NumRungs)
	names := make([]string, resilience.NumRungs)
	for r := range hist {
		hist[r] = m.rungHist[r].Load()
		names[r] = resilience.Rung(r).String()
		rungTotal += hist[r]
	}
	if rungTotal > 0 {
		s.RungHist, s.RungNames = hist, names
	}
	for p := Phase(0); p < numPhases; p++ {
		ps := PhaseStat{Count: m.phaseCount[p].Load(), TotalNs: m.phaseNs[p].Load()}
		if ps.Count > 0 {
			ps.Mean = time.Duration(ps.TotalNs / ps.Count)
		}
		s.Phases[p.String()] = ps
	}
	return s
}

// HitRate returns hits/(hits+misses), or 0 when there were no lookups.
func HitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// String formats the snapshot as the small report the stats endpoint and
// the load generator print.
func (s Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "submits %d  solves %d  batches %d  shed %d  expired %d\n",
		s.Submits, s.Solves, s.Batches, s.LoadShed, s.Expired)
	fmt.Fprintf(&b, "symbolic cache: %d/%d hits (%.1f%%), %d entries, %d evicted\n",
		s.SymbolicHits, s.SymbolicHits+s.SymbolicMisses,
		100*HitRate(s.SymbolicHits, s.SymbolicMisses), s.SymbolicEntries, s.SymbolicEvictions)
	fmt.Fprintf(&b, "factor cache:   %d/%d hits (%.1f%%), %d entries, %d bytes, %d evicted\n",
		s.FactorHits, s.FactorHits+s.FactorMisses,
		100*HitRate(s.FactorHits, s.FactorMisses), s.FactorEntries, s.FactorBytes, s.FactorEvictions)
	if len(s.RungHist) > 0 || s.Escalations > 0 || s.DeadlineMisses > 0 {
		fmt.Fprintf(&b, "resilience: escalations %d  unrecovered %d  fallback %v  deadline-miss %d\n",
			s.Escalations, s.Unrecovered, time.Duration(s.FallbackNs), s.DeadlineMisses)
		if len(s.RungHist) > 0 {
			b.WriteString("rung histogram:")
			for r, c := range s.RungHist {
				fmt.Fprintf(&b, "  %s:%d", s.RungNames[r], c)
			}
			b.WriteString("\n")
		}
	}
	fmt.Fprintf(&b, "queue depth %d; batch sizes", s.QueueDepth)
	for i, ub := range s.BatchBuckets {
		fmt.Fprintf(&b, "  ≤%d:%d", ub, s.BatchSizes[i])
	}
	fmt.Fprintf(&b, "  >%d:%d\n", s.BatchBuckets[len(s.BatchBuckets)-1], s.BatchSizes[len(s.BatchSizes)-1])
	for p := Phase(0); p < numPhases; p++ {
		ps := s.Phases[p.String()]
		fmt.Fprintf(&b, "phase %-8s count %-8d total %-12v mean %v\n",
			p.String(), ps.Count, time.Duration(ps.TotalNs), ps.Mean)
	}
	return b.String()
}
