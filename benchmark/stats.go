package main

import (
	"math"
	"sort"
	"time"
)

// rank is the 1-based nearest rank of the p-th percentile (0 < p <= 100)
// among n >= 1 samples: the smallest rank with at least p% of the samples at
// or below it.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p/100*float64(n))), 1), n)
}

// percentile returns the nearest-rank p-th percentile of sorted, 0 for an
// empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// samplesBeyond is how many of n samples lie beyond the p-th percentile's
// rank. The choosing-metrics rule reports a percentile as an end-to-end
// metric only with at least minBeyond of them.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

const minBeyond = 10

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the conventional median of xs (unsorted input): the mean of the
// middle two for an even count. Latency percentiles use percentile instead.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	return (s[(n-1)/2] + s[n/2]) / 2
}

// ratio divides guarding the denominators that would produce NaN or Inf:
// encoding/json rejects both, and a result must always be well-formed.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(den) || math.IsInf(den, 0) || math.IsNaN(num) || math.IsInf(num, 0) {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// phaseStats are the end-to-end numbers of one measured phase, pooled over
// all its clients.
type phaseStats struct {
	ops        int
	throughput float64 // ops/s: operations completed / wall time of the phase
	p50, p90   float64 // ms, nearest rank
	p99        float64 // ms; diagnostic only, too few samples beyond it to gate
}

// summarize turns a phase's per-operation latencies into its numbers.
func summarize(latencies []time.Duration, wall time.Duration) phaseStats {
	st := phaseStats{ops: len(latencies)}
	if len(latencies) == 0 || wall <= 0 {
		return st
	}
	sorted := make([]float64, len(latencies))
	for i, d := range latencies {
		sorted[i] = ms(d)
	}
	sort.Float64s(sorted)
	st.throughput = float64(len(latencies)) / wall.Seconds()
	st.p50 = percentile(sorted, 50)
	st.p90 = percentile(sorted, 90)
	st.p99 = percentile(sorted, 99)
	return st
}
