package fleet

import (
	"testing"
	"time"
)

// TestLatHistQuantile: Quantile reports the top of the bucket holding
// the nearest-rank sample, ⌈q·total⌉, so a single outlier among a
// hundred samples is the p999 and no quantile understates the tail.
func TestLatHistQuantile(t *testing.T) {
	var empty LatHist
	if got := empty.Quantile(0.999); got != 0 {
		t.Fatalf("empty histogram: Quantile(0.999) = %v, want 0", got)
	}

	// 99 samples at 1µs (bucket 0, top 1µs) and one at 1s (bucket 20,
	// top 1µs·2^20 ≈ 1.05s).
	var h LatHist
	for i := 0; i < 99; i++ {
		h.Observe(time.Microsecond)
	}
	h.Observe(time.Second)
	outlier := time.Duration(1000 << 20)
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.01, time.Microsecond},
		{0.5, time.Microsecond},
		{0.99, time.Microsecond}, // rank 99 is the last 1µs sample
		{0.991, outlier},         // rank ⌈99.1⌉ = 100
		{0.999, outlier},
		{1, outlier},
	} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}

	// Nearest rank is exact where q·total is an integer: 0.07·100 is
	// 7.000000000000001 in float64, yet rank 7 is the last 1µs sample.
	var r LatHist
	for i := 0; i < 7; i++ {
		r.Observe(time.Microsecond)
	}
	for i := 0; i < 93; i++ {
		r.Observe(time.Second)
	}
	if got := r.Quantile(0.07); got != time.Microsecond {
		t.Errorf("7 of 100 samples at 1µs: Quantile(0.07) = %v, want 1µs", got)
	}

	// Anything past the last bounded bucket lands in the overflow
	// bucket, which reports its nominal top.
	var o LatHist
	o.Observe(time.Microsecond)
	o.Observe(time.Hour)
	overflow := time.Duration(1000) << (LatBuckets - 1)
	if got := o.Quantile(1); got != overflow {
		t.Errorf("overflow sample: Quantile(1) = %v, want %v", got, overflow)
	}
	if got := o.Quantile(0.5); got != time.Microsecond {
		t.Errorf("overflow histogram: Quantile(0.5) = %v, want 1µs", got)
	}
}
