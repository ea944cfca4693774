package fleet

import (
	"sync/atomic"
	"time"
)

// LatBuckets is the latency histogram resolution: bucket i counts
// solves that took <= 1µs·2^i, the last bucket is overflow (~134s).
// Power-of-two buckets make the quantile estimate cheap and lock-free —
// the router observes into it on every routed solve.
const LatBuckets = 28

// LatHist is a lock-free cumulative latency histogram. The router
// keeps a fleet-wide one whose windowed deltas (Snapshot) feed the SLO
// controller's p999 signal.
type LatHist struct {
	counts [LatBuckets]atomic.Uint64
	total  atomic.Uint64
}

// Observe records one latency sample.
func (h *LatHist) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	b := 0
	for ub := int64(1000); b < LatBuckets-1 && ns > ub; b++ {
		ub <<= 1
	}
	h.counts[b].Add(1)
	h.total.Add(1)
}

// Quantile returns an upper bound for the q-quantile (q in (0,1]): the
// top of the first bucket where the cumulative count reaches q·total.
// Zero when nothing has been observed.
func (h *LatHist) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	need := uint64(q * float64(total))
	if need == 0 {
		need = 1
	}
	var cum uint64
	ub := int64(1000)
	for b := 0; b < LatBuckets; b++ {
		cum += h.counts[b].Load()
		if cum >= need {
			return time.Duration(ub)
		}
		ub <<= 1
	}
	return time.Duration(ub)
}

// Snapshot copies the cumulative bucket counts and total. Two
// snapshots subtract into a window (LatWindow), which is how an SLO
// controller reads "p999 over the last evaluation period" from a
// cumulative histogram.
func (h *LatHist) Snapshot() (counts [LatBuckets]uint64, total uint64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return counts, h.total.Load()
}

// LatWindow is the difference of two LatHist snapshots: the samples
// observed between them.
type LatWindow struct {
	Counts [LatBuckets]uint64
	Total  uint64
}

// WindowSince subtracts an earlier snapshot from a later one.
func WindowSince(laterCounts [LatBuckets]uint64, laterTotal uint64, earlierCounts [LatBuckets]uint64, earlierTotal uint64) LatWindow {
	var w LatWindow
	for i := range w.Counts {
		w.Counts[i] = laterCounts[i] - earlierCounts[i]
	}
	w.Total = laterTotal - earlierTotal
	return w
}

// Quantile is LatHist.Quantile over the window's samples.
func (w LatWindow) Quantile(q float64) time.Duration {
	if w.Total == 0 {
		return 0
	}
	need := uint64(q * float64(w.Total))
	if need == 0 {
		need = 1
	}
	var cum uint64
	ub := int64(1000)
	for b := 0; b < LatBuckets; b++ {
		cum += w.Counts[b]
		if cum >= need {
			return time.Duration(ub)
		}
		ub <<= 1
	}
	return time.Duration(ub)
}
