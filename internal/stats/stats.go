// Package stats provides the small statistical toolkit used by the
// Monte Carlo experiment harness: means, geometric means, confidence
// intervals, margin-of-error stopping rules and fixed-bin histograms.
//
// The paper runs up to 1000 fault maps per cache per operating point and
// stops when the results reach a 95% confidence interval with a 5% margin
// of error; MarginOfError implements that stopping rule.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by aggregations that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample set")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs. All samples must be positive;
// non-positive samples make the result NaN, mirroring the undefined
// mathematical case rather than silently clamping.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Variance returns the unbiased sample variance of xs (n-1 denominator).
// It returns 0 for fewer than two samples.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(n-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// z95 is the two-sided 95% normal quantile. The paper's stopping rule uses
// a 95% confidence interval; at the sample counts involved (tens to a
// thousand fault maps) the normal approximation to Student's t is accurate
// to well under the 5% margin of error being enforced.
const z95 = 1.959963984540054

// ConfidenceInterval95 returns the half-width of the two-sided 95%
// confidence interval around the mean of xs.
func ConfidenceInterval95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.Inf(1)
	}
	return z95 * StdDev(xs) / math.Sqrt(float64(n))
}

// MarginOfError returns the 95% confidence interval half-width as a
// fraction of the mean. It reports +Inf when the mean is zero or there are
// fewer than two samples, so callers using it as a stopping rule keep
// sampling.
func MarginOfError(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return math.Inf(1)
	}
	return math.Abs(ConfidenceInterval95(xs) / m)
}

// Converged reports whether xs satisfies the paper's stopping rule: a 95%
// confidence interval within the given relative margin of error (the paper
// uses margin = 0.05).
func Converged(xs []float64, margin float64) bool {
	return MarginOfError(xs) <= margin
}

// Summary aggregates a sample set.
type Summary struct {
	N       int
	Mean    float64
	GeoMean float64
	StdDev  float64
	Min     float64
	Max     float64
	CI95    float64 // half-width of the 95% confidence interval
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	s := Summary{
		N:       len(xs),
		Mean:    Mean(xs),
		GeoMean: GeoMean(xs),
		StdDev:  StdDev(xs),
		Min:     xs[0],
		Max:     xs[0],
		CI95:    ConfidenceInterval95(xs),
	}
	for _, x := range xs[1:] {
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	return s, nil
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using
// linear interpolation between closest ranks.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, fmt.Errorf("stats: percentile %v out of range [0,100]", p)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Histogram is a fixed-bin histogram over [Lo, Hi). Values outside the
// range are clamped into the first/last bin so totals are preserved, which
// is the behaviour wanted for the paper's normalized distribution plots.
type Histogram struct {
	Lo, Hi float64
	Counts []uint64
	total  uint64
}

// NewHistogram creates a histogram with bins equal-width bins over
// [lo, hi). It panics if bins < 1 or hi <= lo: histogram geometry is a
// programming decision, not runtime input.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 {
		//lvlint:ignore nopanic documented guard: histogram geometry is a programming decision, not runtime input
		panic("stats: NewHistogram requires bins >= 1")
	}
	if hi <= lo {
		//lvlint:ignore nopanic documented guard: histogram geometry is a programming decision, not runtime input
		panic("stats: NewHistogram requires hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]uint64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	bin := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if bin < 0 {
		bin = 0
	}
	if bin >= len(h.Counts) {
		bin = len(h.Counts) - 1
	}
	h.Counts[bin]++
	h.total++
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() uint64 { return h.total }

// Normalized returns per-bin frequencies summing to 1 (all zeros when
// empty).
func (h *Histogram) Normalized() []float64 {
	out := make([]float64, len(h.Counts))
	if h.total == 0 {
		return out
	}
	for i, c := range h.Counts {
		out[i] = float64(c) / float64(h.total)
	}
	return out
}
