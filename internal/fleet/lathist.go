package fleet

import (
	"math"
	"sync/atomic"
	"time"
)

// LatBuckets is the latency histogram resolution: bucket i counts
// solves that took <= 1µs·2^i, the last bucket is overflow (~134s).
// Power-of-two buckets make the quantile estimate cheap and lock-free —
// the router observes into it on every routed solve.
const LatBuckets = 28

// LatHist is a lock-free cumulative latency histogram. The router
// keeps a fleet-wide one of client-observed solve latencies; its
// quantiles are the p50/p99/p999 in the coordinator's stats.
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
// top of the bucket holding the nearest-rank sample, the first bucket
// where the cumulative count reaches ⌈q·total⌉. A sample in the
// overflow bucket reports that bucket's nominal top. Zero when nothing
// has been observed.
func (h *LatHist) Quantile(q float64) time.Duration {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	p := q * float64(total)
	need := uint64(math.Ceil(p))
	// The float64 product can land an ulp above the integer it stands
	// for (0.07·100 = 7.000000000000001): when q is the float64 nearest
	// r/total, the rank is r exactly.
	//gesp:floateq
	if r := math.Round(p); r >= 1 && r/float64(total) == q {
		need = uint64(r)
	}
	need = min(max(need, 1), total)
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
