package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{42}, 42},
		{"pair", []float64{1, 3}, 2},
		{"negatives", []float64{-2, 2}, 0},
		{"fractions", []float64{0.5, 1.5, 2.5, 3.5}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 100}); !almostEqual(got, 10, 1e-9) {
		t.Errorf("GeoMean(1,100) = %v, want 10", got)
	}
	if got := GeoMean([]float64{2, 2, 2}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("GeoMean(2,2,2) = %v, want 2", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
	if got := GeoMean([]float64{1, 0}); !math.IsNaN(got) {
		t.Errorf("GeoMean with zero = %v, want NaN", got)
	}
	if got := GeoMean([]float64{-1, 4}); !math.IsNaN(got) {
		t.Errorf("GeoMean with negative = %v, want NaN", got)
	}
}

func TestGeoMeanLeqMeanProperty(t *testing.T) {
	// AM-GM inequality: for positive samples, geomean <= mean.
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			v := math.Abs(r)
			if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) || v > 1e100 {
				continue
			}
			xs = append(xs, v)
		}
		if len(xs) == 0 {
			return true
		}
		return GeoMean(xs) <= Mean(xs)*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	if got, want := Variance(xs), 32.0/7.0; !almostEqual(got, want, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, want)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance of singleton = %v, want 0", got)
	}
	if got, want := StdDev(xs), math.Sqrt(32.0/7.0); !almostEqual(got, want, 1e-12) {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
}

func TestVarianceShiftInvariantProperty(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			if math.IsInf(r, 0) || math.IsNaN(r) || math.Abs(r) > 1e6 {
				continue
			}
			xs = append(xs, r)
		}
		if len(xs) < 2 || math.IsNaN(shift) || math.IsInf(shift, 0) || math.Abs(shift) > 1e6 {
			return true
		}
		shifted := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + shift
		}
		a, b := Variance(xs), Variance(shifted)
		return almostEqual(a, b, 1e-6*(1+math.Abs(a)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConfidenceInterval(t *testing.T) {
	if got := ConfidenceInterval95([]float64{1}); !math.IsInf(got, 1) {
		t.Errorf("CI of singleton = %v, want +Inf", got)
	}
	xs := []float64{10, 10, 10, 10}
	if got := ConfidenceInterval95(xs); got != 0 {
		t.Errorf("CI of constant samples = %v, want 0", got)
	}
}

func TestMarginOfErrorStoppingRule(t *testing.T) {
	// Constant samples converge immediately.
	if !Converged([]float64{5, 5, 5}, 0.05) {
		t.Error("constant samples should satisfy 5% margin")
	}
	// Two wildly different samples do not.
	if Converged([]float64{1, 100}, 0.05) {
		t.Error("high-variance tiny sample should not satisfy 5% margin")
	}
	// Zero mean -> +Inf margin, never converged.
	if Converged([]float64{-1, 1}, 0.05) {
		t.Error("zero-mean samples must not report convergence")
	}
}

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("Summarize(nil) err = %v, want ErrEmpty", err)
	}
	s, err := Summarize([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || s.Min != 1 || s.Max != 3 || !almostEqual(s.Mean, 2, 1e-12) {
		t.Errorf("Summarize = %+v", s)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}}
	for _, tt := range tests {
		got, err := Percentile(xs, tt.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almostEqual(got, tt.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("Percentile of empty should error")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("Percentile out of range should error")
	}
	// Input must not be mutated (sorted copy).
	in := []float64{3, 1, 2}
	if _, err := Percentile(in, 50); err != nil {
		t.Fatal(err)
	}
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", in)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	for _, x := range []float64{0.1, 0.1, 0.6, 0.9, 1.5, -0.5} {
		h.Add(x)
	}
	if h.Total() != 6 {
		t.Fatalf("Total = %d, want 6", h.Total())
	}
	// -0.5 clamps to bin 0, 1.5 clamps to bin 3.
	want := []uint64{3, 0, 1, 2}
	for i, c := range h.Counts {
		if c != want[i] {
			t.Errorf("bin %d = %d, want %d", i, c, want[i])
		}
	}
	norm := h.Normalized()
	sum := 0.0
	for _, f := range norm {
		sum += f
	}
	if !almostEqual(sum, 1, 1e-12) {
		t.Errorf("normalized sum = %v, want 1", sum)
	}
}

func TestHistogramEmptyNormalized(t *testing.T) {
	h := NewHistogram(0, 1, 3)
	for _, f := range h.Normalized() {
		if f != 0 {
			t.Errorf("empty histogram normalized bin = %v, want 0", f)
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, tt := range []struct {
		name   string
		lo, hi float64
		bins   int
	}{{"zero bins", 0, 1, 0}, {"inverted range", 1, 0, 4}} {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewHistogram(tt.lo, tt.hi, tt.bins)
		})
	}
}

func TestHistogramTotalPreservedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewHistogram(-10, 10, 8)
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		var sum uint64
		for _, c := range h.Counts {
			sum += c
		}
		return sum == uint64(n) && h.Total() == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
