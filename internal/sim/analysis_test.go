package sim

import (
	"context"
	"math"
	"testing"
)

func TestFig2Curve(t *testing.T) {
	pts := Fig2Curve()
	if len(pts) < 20 {
		t.Fatalf("only %d points", len(pts))
	}
	// Ordering bit < word < block < cache at every sampled voltage, and
	// monotone decrease with voltage.
	for i, p := range pts {
		if !(p.Bit <= p.Word && p.Word <= p.Block && p.Block <= p.Cache32KB) {
			t.Errorf("granularity ordering broken at %vmV", p.VoltageMV)
		}
		if i > 0 && p.Bit > pts[i-1].Bit {
			t.Errorf("bit Pfail not monotone at %vmV", p.VoltageMV)
		}
	}
}

func TestFig3AllBenchmarks(t *testing.T) {
	res, err := NewEngine(0).Fig3(context.Background(), 60_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 10 {
		t.Fatalf("got %d benchmarks, want 10", len(res))
	}
	for _, r := range res {
		if r.Intervals < 3 {
			t.Errorf("%s: only %d intervals", r.Benchmark, r.Intervals)
		}
		if r.MeanSpatial <= 0 || r.MeanSpatial > 1 || r.MeanReuse < 0 || r.MeanReuse >= 1 {
			t.Errorf("%s: implausible locality %v/%v", r.Benchmark, r.MeanSpatial, r.MeanReuse)
		}
	}
	// The libquantum exception: highest spatial, lowest reuse.
	var lq, others float64
	for _, r := range res {
		if r.Benchmark == "462.libquantum" {
			lq = r.MeanSpatial
		} else if r.MeanSpatial > others {
			others = r.MeanSpatial
		}
	}
	if lq <= others {
		t.Errorf("libquantum spatial (%.2f) should be the suite maximum (next %.2f)", lq, others)
	}
}

func TestFig6BasicmathAt400(t *testing.T) {
	res, err := NewEngine(0).Fig6(context.Background(), "basicmath", op(t, 400), 12, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Effective capacity centers near 32 KB * (1 - 27.5%) ≈ 23.2 KB.
	if math.Abs(res.CapacityKB.Mean-23.2) > 0.6 {
		t.Errorf("mean effective capacity = %.2f KB, want ~23.2", res.CapacityKB.Mean)
	}
	if res.CapacityHist.Total() != 12 {
		t.Errorf("capacity histogram has %d samples", res.CapacityHist.Total())
	}
	// Figure 6b: blocks average ~5-7 words (with transform overhead);
	// chunks are small at Pfail 1e-2 (mean run ≈ 2.6 words).
	bb := res.BBSizes.Normalized()
	ch := res.ChunkSizes.Normalized()
	bbMean, chMean := histMean(bb), histMean(ch)
	if bbMean < 4 || bbMean > 9 {
		t.Errorf("mean transformed block footprint = %.2f, want ~5-8", bbMean)
	}
	if chMean < 1.5 || chMean > 4.5 {
		t.Errorf("mean chunk size = %.2f, want ~2.6 (geometric at 27.5%% word defects)", chMean)
	}
	if res.Placeable <= 0.9 {
		t.Errorf("basicmath placeable on %.0f%% of maps, want > 90%%", 100*res.Placeable)
	}
}

func histMean(norm []float64) float64 {
	sum := 0.0
	for i, f := range norm {
		sum += (float64(i) + 0.5) * f
	}
	return sum
}

func TestFig6UnknownBenchmark(t *testing.T) {
	if _, err := NewEngine(0).Fig6(context.Background(), "nope", op(t, 400), 2, 1); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestYieldAnalysis(t *testing.T) {
	rows, err := NewEngine(0).YieldAnalysis(context.Background(), 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	get := func(scheme string, mv int) float64 {
		for _, r := range rows {
			if r.Scheme == scheme && r.VoltageMV == mv {
				return r.Yield
			}
		}
		t.Fatalf("missing row %s@%d", scheme, mv)
		return 0
	}
	// The paper's note: plain Wilkerson word-disable cannot achieve the
	// yield target below 480 mV; at 560 mV it is fine.
	if y := get("Wilkerson (plain)", 560); y < 0.9 {
		t.Errorf("plain Wilkerson yield at 560mV = %.2f, want high", y)
	}
	if y := get("Wilkerson (plain)", 440); y > 0.1 {
		t.Errorf("plain Wilkerson yield at 440mV = %.2f, want ~0", y)
	}
	if y := get("Wilkerson (plain)", 400); y != 0 {
		t.Errorf("plain Wilkerson yield at 400mV = %.2f, want 0", y)
	}
	// BBR places basicmath at every evaluated point.
	for _, mv := range []int{560, 520, 480, 440, 400} {
		if y := get("BBR", mv); y < 0.9 {
			t.Errorf("BBR yield at %dmV = %.2f, want ~1", mv, y)
		}
	}
}

func TestYieldAnalysisValidates(t *testing.T) {
	if _, err := NewEngine(0).YieldAnalysis(context.Background(), 0, 1); err == nil {
		t.Error("zero maps must error")
	}
}
