package energy

import (
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dvfs"
)

// syntheticBaseline is a plausible conventional-cache run at 760 mV:
// CPI 1.0, modest L2 traffic.
func syntheticBaseline() cpu.Result {
	return cpu.Result{
		Instructions: 1_000_000,
		BaseCycles:   700_000,
		L1Cycles:     200_000,
		MemCycles:    100_000,
		Stores:       100_000,
		L2Reads:      4_000,
		MemReads:     400,
	}
}

func TestEPIValidation(t *testing.T) {
	m := DefaultModel()
	if _, err := m.EPI(cpu.Result{}, dvfs.Nominal(), 1); err == nil {
		t.Error("empty result must error")
	}
	if _, err := m.EPI(syntheticBaseline(), dvfs.Nominal(), 0); err == nil {
		t.Error("zero static factor must error")
	}
}

func TestBaselineSharesCalibration(t *testing.T) {
	m := DefaultModel()
	shares, err := m.BaselineShares(syntheticBaseline())
	if err != nil {
		t.Fatal(err)
	}
	if shares.CoreDyn < 0.90 || shares.CoreDyn > 0.97 {
		t.Errorf("core dynamic share = %.3f, want ~0.95", shares.CoreDyn)
	}
	if shares.CoreStatic > 0.04 {
		t.Errorf("core static share = %.3f, want ~0.02", shares.CoreStatic)
	}
	if shares.L2Static > 0.02 {
		t.Errorf("L2 static share = %.3f, want ~0.01", shares.L2Static)
	}
	sum := shares.CoreDyn + shares.L2Dyn + shares.MemDyn + shares.CoreStatic + shares.L2Static
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestDynamicEnergyScalesQuadratically(t *testing.T) {
	m := DefaultModel()
	base := syntheticBaseline()
	p400, _ := dvfs.PointAt(400)
	b, err := m.EPI(base, p400, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := m.EPI(base, dvfs.Nominal(), 1)
	want := (0.4 / 0.76) * (0.4 / 0.76)
	if got := b.CoreDyn / ref.CoreDyn; math.Abs(got-want) > 1e-9 {
		t.Errorf("dynamic scaling = %v, want %v", got, want)
	}
}

func TestStaticEnergyGrowsAsFrequencyDrops(t *testing.T) {
	// Lower voltage: static *power* drops linearly but runtime stretches
	// faster, so static *energy* per instruction grows.
	m := DefaultModel()
	base := syntheticBaseline()
	p400, _ := dvfs.PointAt(400)
	low, _ := m.EPI(base, p400, 1)
	ref, _ := m.EPI(base, dvfs.Nominal(), 1)
	if low.CoreStatic <= ref.CoreStatic {
		t.Errorf("core static at 400mV (%v) should exceed baseline (%v)", low.CoreStatic, ref.CoreStatic)
	}
	if low.L2Static <= ref.L2Static {
		t.Error("voltage-fixed L2 static energy must grow with runtime")
	}
	// L2 static grows exactly with the time stretch (no voltage scaling).
	wantL2 := 1607.0 / 475.0
	if got := low.L2Static / ref.L2Static; math.Abs(got-wantL2) > 1e-9 {
		t.Errorf("L2 static stretch = %v, want %v", got, wantL2)
	}
}

func TestStaticFactorAppliesToL1ShareOnly(t *testing.T) {
	m := DefaultModel()
	base := syntheticBaseline()
	a, _ := m.EPI(base, dvfs.Nominal(), 1.0)
	b, _ := m.EPI(base, dvfs.Nominal(), 1.064) // FFW's Table III factor
	ratio := b.CoreStatic / a.CoreStatic
	want := 1 + 0.4*0.064
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("static factor ratio = %v, want %v", ratio, want)
	}
	if b.CoreDyn != a.CoreDyn {
		t.Error("static factor must not touch dynamic energy")
	}
}

func TestNormalizedHeadlineReduction(t *testing.T) {
	// The abstract's claim: at 400 mV the proposed scheme reduces EPI by
	// ~64% versus the 760 mV conventional baseline. Model an FFW+BBR run:
	// ~10% CPI inflation, ~30% more L2 reads, static factor ~1.03.
	m := DefaultModel()
	base := syntheticBaseline()
	run := base
	run.BaseCycles *= 1.02
	run.L1Cycles *= 1.1
	run.MemCycles *= 1.8
	run.L2Reads = 5200
	p400, _ := dvfs.PointAt(400)
	norm, err := m.Normalized(run, p400, 1.033, base)
	if err != nil {
		t.Fatal(err)
	}
	if norm < 0.30 || norm > 0.42 {
		t.Errorf("normalized EPI = %.3f, want ~0.36 (64%% reduction)", norm)
	}
}

func TestNormalizedIdentity(t *testing.T) {
	m := DefaultModel()
	base := syntheticBaseline()
	norm, err := m.Normalized(base, dvfs.Nominal(), 1.0, base)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(norm-1) > 1e-12 {
		t.Errorf("self-normalization = %v, want 1", norm)
	}
}

func TestExtraL2TrafficRaisesEPI(t *testing.T) {
	m := DefaultModel()
	base := syntheticBaseline()
	heavy := base
	heavy.L2Reads *= 100 // Simple-wdis-like defect traffic at 400 mV
	p400, _ := dvfs.PointAt(400)
	a, _ := m.Normalized(base, p400, 1, base)
	b, _ := m.Normalized(heavy, p400, 1, base)
	if b <= a {
		t.Error("extra L2 traffic must raise EPI")
	}
	if b < 1.0 {
		t.Errorf("100x L2 traffic should push EPI above the 760 mV baseline, got %.3f", b)
	}
}

func TestMemoryEnergyCounted(t *testing.T) {
	m := DefaultModel()
	base := syntheticBaseline()
	more := base
	more.MemReads *= 10
	a, _ := m.EPI(base, dvfs.Nominal(), 1)
	b, _ := m.EPI(more, dvfs.Nominal(), 1)
	if b.MemDyn <= a.MemDyn {
		t.Error("memory reads must add energy")
	}
}

func TestNormalizedErrorPaths(t *testing.T) {
	m := DefaultModel()
	base := syntheticBaseline()
	if _, err := m.Normalized(cpu.Result{}, dvfs.Nominal(), 1, base); err == nil {
		t.Error("empty run must error")
	}
	if _, err := m.Normalized(base, dvfs.Nominal(), 1, cpu.Result{}); err == nil {
		t.Error("empty baseline must error")
	}
}

func TestBaselineSharesErrorPath(t *testing.T) {
	if _, err := DefaultModel().BaselineShares(cpu.Result{}); err == nil {
		t.Error("empty baseline must error")
	}
}

func TestL2WriteEnergyCounted(t *testing.T) {
	m := DefaultModel()
	base := syntheticBaseline()
	more := base
	more.Stores *= 10
	a, _ := m.EPI(base, dvfs.Nominal(), 1)
	b, _ := m.EPI(more, dvfs.Nominal(), 1)
	if b.L2Dyn <= a.L2Dyn {
		t.Error("store traffic must add L2 write energy")
	}
}

// TestEnergyModelConsistency checks DefaultModel's leakage constants,
// within 10%, against the values a component-level core power model
// (Table I core in 45 nm: fetch, decode, issue, ALUs, LSQ, ROB,
// register files, predictor and the two L1 arrays) gave for them.
func TestEnergyModelConsistency(t *testing.T) {
	m := DefaultModel()
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		// DESIGN.md calibration anchor 5: core+L1 static ≈2% against
		// core+L1 dynamic ≈95% at 760 mV.
		{"static/dynamic ratio", m.CoreStaticPerRefCycle / m.CoreDynEPI, 0.02094},
		// DESIGN.md calibration anchor 5: the two L1 arrays hold ≈40%
		// of core+L1 leakage.
		{"L1 leakage share", m.L1ShareOfCoreStatic, 0.3973},
	} {
		if math.Abs(c.got-c.want)/c.want > 0.10 {
			t.Errorf("%s = %.5f, want %.5f within 10%%", c.name, c.got, c.want)
		}
	}
}
