package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile
// for it to describe the tail rather than a handful of outliers.
const minBeyond = 10

// percentileLadder lists the percentiles a tail may be reported at,
// highest first.
var percentileLadder = []float64{99.9, 99, 90, 75, 50}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile of n samples.
func rank(n int, p float64) int {
	// The epsilon keeps ranks like 99.9% of 10000 from rounding up.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailPercentile picks the highest percentile of the ladder that has at
// least minBeyond of n samples above it. ok is false when even the
// median has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range percentileLadder {
		if n-rank(n, p) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// quartiles returns the three cut points of data as Python's
// statistics.quantiles(data, n=4) computes them (the default
// "exclusive" method), so spreads here match the ones the benchmark's
// contract is stated in.
func quartiles(data []float64) (q1, q2, q3 float64) {
	d := slices.Clone(data)
	slices.Sort(d)
	switch len(d) {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	ld := len(d)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// median of data (the middle quartile cut).
func median(data []float64) float64 {
	_, q2, _ := quartiles(data)
	return q2
}

// durationsMS converts durations to sorted milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(out)
	return out
}
