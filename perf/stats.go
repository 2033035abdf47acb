package main

import (
	"math"
	"sort"
)

// beyond is how many samples must lie above a percentile before it is
// reported: p99 needs 1 000 samples, p90 needs 100.
const beyond = 10

// ladderPcts are the percentiles a summary may report, ascending.
var ladderPcts = []float64{50, 90, 99, 99.9}

// rank is the nearest-rank position (1-based) of the p-th percentile
// among n samples: the smallest with at least p % of them at or below
// it. Percentiles are tenths of a percent at finest, so the arithmetic
// is whole numbers: 99.9 % of 10 000 must be 9 990, not 9 990.000…1.
func rank(n int, p float64) int {
	permille := int(math.Round(p * 10))
	r := (n*permille + 999) / 1000
	return min(max(r, 1), n)
}

// highestPct returns the highest of ladderPcts that n samples support:
// the one with at least `beyond` samples above it. With fewer than 20
// samples not even the median qualifies and it returns 0.
func highestPct(n int) float64 {
	best := 0.0
	for _, p := range ladderPcts {
		if n > 0 && n-rank(n, p) >= beyond {
			best = p
		}
	}
	return best
}

// percentile is the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// summary describes one op kind's latencies, in ms.
type summary struct {
	N     int     `json:"n"`
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	// Highest is the highest percentile N samples support under the
	// ten-samples-beyond rule, and HighestMS its value.
	Highest   float64 `json:"highest_pct"`
	HighestMS float64 `json:"highest_ms"`
}

func summarize(ms []float64) summary {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	out := summary{
		N:       len(s),
		P50MS:   percentile(s, 50),
		P90MS:   percentile(s, 90),
		P99MS:   percentile(s, 99),
		Highest: highestPct(len(s)),
	}
	if out.Highest > 0 {
		out.HighestMS = percentile(s, out.Highest)
	}
	return out
}
