package main

import (
	"math"
	"sort"
)

// tailPercentile is the one latency percentile every workload reports
// as latency_tail_ms. A run keeps issuing operations until it has
// minTailSamples of them, so at least ten samples lie beyond p90.
const (
	tailPercentile = 0.90
	minTailSamples = 100
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the p-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if s[lo] == s[hi] || math.IsInf(s[hi], 1) {
		return s[hi] // also keeps a failed (+Inf) sample from interpolating to NaN
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// beyond counts the samples strictly greater than the p-quantile.
func beyond(xs []float64, p float64) int {
	q := quantile(xs, p)
	n := 0
	for _, x := range xs {
		if x > q {
			n++
		}
	}
	return n
}

// tailSupported reports whether xs holds at least ten samples beyond
// its p-quantile: the rule for reporting a percentile as a tail.
func tailSupported(xs []float64, p float64) bool {
	return beyond(xs, p) >= 10
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
