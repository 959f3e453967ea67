package main

import (
	"math"
	"sort"
	"time"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// beyondMin is how many samples must lie beyond a percentile before it is
// reported: with fewer, the value is a handful of outliers, not a tail.
const beyondMin = 10

// percentile picks the p-th percentile (0 < p < 100) of ascending sorted
// samples by nearest rank. ok is false when fewer than beyondMin samples
// lie beyond the pick.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p/100*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= beyondMin
}

// tailPercentile returns the highest of p99, p95, p90, p75 and p50 that has
// beyondMin samples beyond it, and which one it was (0 when none has).
func tailPercentile(sorted []float64) (v float64, p float64) {
	for _, p := range []float64{99, 95, 90, 75, 50} {
		if v, ok := percentile(sorted, p); ok {
			return v, p
		}
	}
	return 0, 0
}

// median of xs in any order; 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1 and Q3 the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance check of the benchmark contract computes spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		if n == 1 {
			return xs[0], xs[0]
		}
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// 1-based position k*(n+1)/4 between s[j-1] and s[j]; like Python,
		// j is clamped and the fraction is not, so tiny samples extrapolate.
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
