package main

import (
	"math"
	"sort"
)

// percentile is the benchmark's one percentile routine: nearest rank over
// an ascending sample. p is in (0, 100]; an empty sample yields NaN.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median sorts a copy of vals and returns its nearest-rank p50.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailPercentile picks the tail a sample can support: the highest of p99,
// p95 and p90 that still has at least ten samples beyond it. Below a
// hundred samples no tail is reported (ok is false).
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range []float64{99, 95, 90} {
		if beyond := n - int(math.Ceil(p/100*float64(n))); beyond >= 10 {
			return p, true
		}
	}
	return 0, false
}
