package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.9, 3.7}} {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Errorf("quantile sorted its input in place: %v", xs)
	}
}

// The tail percentile is reported only with at least ten samples beyond
// it: p90 needs 100 samples, and minTailSamples guarantees them.
func TestTailPercentileRule(t *testing.T) {
	if got := beyond(seq(minTailSamples), tailPercentile); got < 10 {
		t.Fatalf("%d samples leave only %d beyond p%.0f", minTailSamples, got, 100*tailPercentile)
	}
	if !tailSupported(seq(100), 0.90) {
		t.Error("100 samples should support p90")
	}
	if tailSupported(seq(90), 0.90) {
		t.Error("90 samples leave 9 beyond p90; the rule needs 10")
	}
	if tailSupported(seq(100), 0.99) {
		t.Error("100 samples cannot support p99")
	}
}

// A failed operation misses any latency limit: it is +Inf in the
// latency samples and reported as the largest finite value.
func TestFailedLatencyMissesEveryLimit(t *testing.T) {
	lat := append(seq(9), math.Inf(1))
	if q := quantile(lat, 1); !math.IsInf(q, 1) {
		t.Fatalf("max latency with a failure = %v, want +Inf", q)
	}
	if got := finite(math.Inf(1)); got != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %v", got)
	}
}
