package main

import (
	"math"
	"sort"
)

// median returns the median of xs (0 for an empty slice); xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// tail returns the highest order statistic of xs that still has ten
// samples beyond it, and the percentile it sits at. With twenty or
// fewer samples no percentile above the median qualifies, and the
// maximum is reported at percentile 100 so the reader sees it is one.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 20 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// quantile returns the q-quantile of xs by nearest rank (0 for an
// empty slice); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// quartileSpread returns (Q3−Q1)/median with the quartiles Python's
// statistics.quantiles(xs, n=4) gives (exclusive method), which is how
// the acceptance pipeline measures run-to-run spread.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := min(max(int(pos), 1), n-1)
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(m)
}
