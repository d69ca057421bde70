package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/ffw"
	"repro/internal/inject"
	"repro/internal/workload"
)

func op(t *testing.T, mv int) dvfs.OperatingPoint {
	t.Helper()
	p, err := dvfs.PointAt(mv)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunValidation(t *testing.T) {
	if _, err := RunContext(context.Background(), RunSpec{Scheme: DefectFree, Benchmark: "nonesuch", Op: dvfs.Nominal(), Instructions: 10, CPU: cpu.DefaultConfig()}); err == nil {
		t.Error("unknown benchmark must error")
	}
	if _, err := RunContext(context.Background(), RunSpec{Scheme: DefectFree, Benchmark: "adpcm", Op: dvfs.Nominal(), CPU: cpu.DefaultConfig()}); err == nil {
		t.Error("zero instructions must error")
	}
	if _, err := RunContext(context.Background(), RunSpec{Scheme: "bogus", Benchmark: "adpcm", Op: dvfs.Nominal(), Instructions: 10, CPU: cpu.DefaultConfig()}); err == nil {
		t.Error("unknown scheme must error")
	}
}

func TestConventionalBelowVccminIsYieldError(t *testing.T) {
	_, err := RunContext(context.Background(), RunSpec{Scheme: Conventional, Benchmark: "adpcm", Op: op(t, 400), Instructions: 10, CPU: cpu.DefaultConfig()})
	if !errors.Is(err, ErrYield) {
		t.Errorf("err = %v, want ErrYield", err)
	}
}

func TestAllSchemesRunAt400(t *testing.T) {
	for _, s := range AllSchemes() {
		if s == Conventional || s == WilkersonPlain {
			// Conventional is pinned above 400 mV and plain Wilkerson
			// cannot cover 400 mV maps (both assert their own tests).
			continue
		}
		r, err := RunContext(context.Background(), RunSpec{Scheme: s, Benchmark: "basicmath", Op: op(t, 400), MapSeed: 3, WorkSeed: 3, Instructions: 20_000, CPU: cpu.DefaultConfig()})
		if err != nil {
			t.Errorf("%s: %v", s, err)
			continue
		}
		if r.Instructions != 20_000 {
			t.Errorf("%s: ran %d useful instructions", s, r.Instructions)
		}
		if r.Cycles() <= 0 {
			t.Errorf("%s: no cycles", s)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	spec := RunSpec{Scheme: FFWBBR, Benchmark: "qsort", Op: op(t, 440), MapSeed: 5, WorkSeed: 5, Instructions: 20_000, CPU: cpu.DefaultConfig()}
	a, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("nondeterministic:\n%+v\n%+v", a, b)
	}
}

func TestBBRExecutesOverheadJumps(t *testing.T) {
	r, err := RunContext(context.Background(), RunSpec{Scheme: FFWBBR, Benchmark: "dijkstra", Op: op(t, 480), MapSeed: 1, WorkSeed: 1, Instructions: 30_000, CPU: cpu.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Executed <= r.Instructions {
		t.Error("BBR must execute inserted jumps on top of useful work")
	}
	df, _ := RunContext(context.Background(), RunSpec{Scheme: DefectFree, Benchmark: "dijkstra", Op: op(t, 480), MapSeed: 1, WorkSeed: 1, Instructions: 30_000, CPU: cpu.DefaultConfig()})
	if df.Executed != df.Instructions {
		t.Error("non-BBR schemes have no overhead instructions")
	}
}

func TestConfigValidate(t *testing.T) {
	good := QuickConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{MinMaps: 1, MaxMaps: 1},                                 // no instructions
		{Instructions: 10, MinMaps: 0, MaxMaps: 1},               // min < 1
		{Instructions: 10, MinMaps: 3, MaxMaps: 1},               // max < min
		{Instructions: 10, MinMaps: 1, MaxMaps: 1, Margin: -0.1}, // negative margin
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail validation", i)
		}
	}
}

func TestL1StaticFactors(t *testing.T) {
	if L1StaticFactor(DefectFree) != 1 || L1StaticFactor(Conventional) != 1 {
		t.Error("baselines must have unit static factor")
	}
	// FFW+BBR averages a ~6% dcache and ~0.1% icache overhead.
	f := L1StaticFactor(FFWBBR)
	if f < 1.01 || f > 1.06 {
		t.Errorf("FFW+BBR static factor = %v", f)
	}
	// FBA+ is granted the 64-entry leakage (paper's concession).
	if L1StaticFactor(FBAPlus) != L1StaticFactor(FBA64) {
		t.Error("FBA+ must be charged the 64-entry leakage")
	}
	if L1StaticFactor(Scheme("zzz")) != 1 {
		t.Error("unknown scheme defaults to 1")
	}
}

// evaluateShape runs the reduced evaluation once and is shared by the
// shape assertions below.
var shapeCells []EvalCell

func shape(t *testing.T) []EvalCell {
	t.Helper()
	if shapeCells != nil {
		return shapeCells
	}
	cfg := QuickConfig()
	cfg.Instructions = 100_000
	cells, err := NewEngine(0).Evaluate(context.Background(), cfg, EvalSchemes(), nil, []dvfs.OperatingPoint{op(t, 560), op(t, 480), op(t, 440), op(t, 400)})
	if err != nil {
		t.Fatal(err)
	}
	shapeCells = cells
	return cells
}

func cell(t *testing.T, cells []EvalCell, s Scheme, mv int) EvalCell {
	t.Helper()
	c, ok := CellFor(cells, s, mv)
	if !ok {
		t.Fatalf("no cell for %s@%d", s, mv)
	}
	return c
}

func TestShapeAt560LatencyDominates(t *testing.T) {
	// Paper Figure 10 at 560 mV: the +1-cycle schemes lose heavily; the
	// zero-latency schemes lose little; FFW+BBR is slightly above
	// Simple-wdis (BBR perturbs block placement).
	cells := shape(t)
	wdis := cell(t, cells, SimpleWdis, 560)
	ours := cell(t, cells, FFWBBR, 560)
	eightT := cell(t, cells, EightT, 560)
	if wdis.NormRuntime > 1.12 {
		t.Errorf("Simple-wdis at 560mV = %.3f, paper ~1.06", wdis.NormRuntime)
	}
	if ours.NormRuntime < wdis.NormRuntime {
		t.Errorf("FFW+BBR (%.3f) should be slightly above Simple-wdis (%.3f) at 560mV", ours.NormRuntime, wdis.NormRuntime)
	}
	if ours.NormRuntime > 1.15 {
		t.Errorf("FFW+BBR at 560mV = %.3f, should be small", ours.NormRuntime)
	}
	if eightT.NormRuntime < 1.2 {
		t.Errorf("8T (+1 cycle) at 560mV = %.3f, want >= 1.2 (paper >1.4)", eightT.NormRuntime)
	}
	for _, s := range []Scheme{WilkersonPlus, FBAPlus, IDCPlus} {
		if c := cell(t, cells, s, 560); c.NormRuntime < 1.2 {
			t.Errorf("%s at 560mV = %.3f, +1-cycle schemes should cluster with 8T", s, c.NormRuntime)
		}
	}
}

func TestShapeCrossoverAround480(t *testing.T) {
	// "The L1 latency continues to dominate the performance until the
	// increased L2 cache accesses become a bigger problem [after 480mV]":
	// Simple-wdis is clearly below the +1-cycle schemes at 560 mV, within
	// a whisker of them at 480 mV, and clearly above by 440 mV.
	cells := shape(t)
	wdis560 := cell(t, cells, SimpleWdis, 560)
	eightT560 := cell(t, cells, EightT, 560)
	if wdis560.NormRuntime >= eightT560.NormRuntime-0.1 {
		t.Errorf("at 560mV Simple-wdis (%.3f) should be clearly below 8T (%.3f)", wdis560.NormRuntime, eightT560.NormRuntime)
	}
	wdis480 := cell(t, cells, SimpleWdis, 480)
	eightT480 := cell(t, cells, EightT, 480)
	if gap := wdis480.NormRuntime - eightT480.NormRuntime; gap < -0.1 || gap > 0.15 {
		t.Errorf("at 480mV Simple-wdis (%.3f) and 8T (%.3f) should be near the crossover", wdis480.NormRuntime, eightT480.NormRuntime)
	}
	wdis440 := cell(t, cells, SimpleWdis, 440)
	eightT440 := cell(t, cells, EightT, 440)
	if wdis440.NormRuntime <= eightT440.NormRuntime {
		t.Errorf("at 440mV Simple-wdis (%.3f) should have crossed above 8T (%.3f)", wdis440.NormRuntime, eightT440.NormRuntime)
	}
}

func TestShapeAt400DefectsDominate(t *testing.T) {
	// Paper Figure 10/11 at 400 mV: Simple-wdis collapses; Wilkerson+ is
	// bad; FBA+/IDC+ recover partially; FFW+BBR is the best architectural
	// scheme with the lowest L2 traffic among defect-handling schemes.
	cells := shape(t)
	ours := cell(t, cells, FFWBBR, 400)
	wdis := cell(t, cells, SimpleWdis, 400)
	wilk := cell(t, cells, WilkersonPlus, 400)
	fba := cell(t, cells, FBAPlus, 400)
	idc := cell(t, cells, IDCPlus, 400)

	if wdis.NormRuntime < 2.5 {
		t.Errorf("Simple-wdis at 400mV = %.3f, should collapse (paper: severe loss)", wdis.NormRuntime)
	}
	if wilk.NormRuntime < 1.6 {
		t.Errorf("Wilkerson+ at 400mV = %.3f, should suffer badly", wilk.NormRuntime)
	}
	if !(fba.NormRuntime < wdis.NormRuntime && fba.NormRuntime < wilk.NormRuntime) {
		t.Error("FBA+ should recover relative to Simple-wdis and Wilkerson+")
	}
	for _, other := range []EvalCell{wdis, wilk, fba, idc} {
		if ours.NormRuntime >= other.NormRuntime {
			t.Errorf("FFW+BBR (%.3f) must beat %s (%.3f) at 400mV", ours.NormRuntime, other.Scheme, other.NormRuntime)
		}
	}
	for _, other := range []EvalCell{wdis, wilk, fba, idc} {
		if ours.L2PerKilo >= other.L2PerKilo {
			t.Errorf("FFW+BBR L2/k (%.1f) must be below %s (%.1f) at 400mV", ours.L2PerKilo, other.Scheme, other.L2PerKilo)
		}
	}
}

func TestShapeEPI(t *testing.T) {
	// Paper Figure 12: FFW+BBR's normalized EPI decreases monotonically to
	// 400 mV, beats every other architectural (non-8T) scheme there, and
	// lands near the 8T cache; Simple-wdis turns back up.
	cells := shape(t)
	ours560 := cell(t, cells, FFWBBR, 560)
	ours480 := cell(t, cells, FFWBBR, 480)
	ours400 := cell(t, cells, FFWBBR, 400)
	if !(ours560.NormEPI > ours480.NormEPI && ours480.NormEPI > ours400.NormEPI) {
		t.Errorf("FFW+BBR EPI not monotone: %.3f %.3f %.3f", ours560.NormEPI, ours480.NormEPI, ours400.NormEPI)
	}
	// Substantial reduction versus the 760 mV conventional baseline
	// (paper: 64%; tolerance band: >= 45%).
	if ours400.NormEPI > 0.55 {
		t.Errorf("FFW+BBR EPI at 400mV = %.3f, want <= 0.55 (paper 0.36)", ours400.NormEPI)
	}
	for _, s := range []Scheme{SimpleWdis, WilkersonPlus, FBAPlus, IDCPlus} {
		if c := cell(t, cells, s, 400); ours400.NormEPI >= c.NormEPI {
			t.Errorf("FFW+BBR EPI (%.3f) must beat %s (%.3f) at 400mV", ours400.NormEPI, s, c.NormEPI)
		}
	}
	// Near the 8T cache (paper: 0.36 vs 0.38; we assert within 0.05).
	eightT := cell(t, cells, EightT, 400)
	if diff := ours400.NormEPI - eightT.NormEPI; diff > 0.05 || diff < -0.05 {
		t.Errorf("FFW+BBR EPI (%.3f) should be close to 8T (%.3f)", ours400.NormEPI, eightT.NormEPI)
	}
	// Simple-wdis EPI rises again at deep voltage.
	wdis480 := cell(t, cells, SimpleWdis, 480)
	wdis400 := cell(t, cells, SimpleWdis, 400)
	if wdis400.NormEPI <= wdis480.NormEPI {
		t.Error("Simple-wdis EPI should turn upward below 480mV")
	}
}

func TestEvaluateDefaults(t *testing.T) {
	cfg := QuickConfig()
	cfg.Instructions = 10_000
	cfg.MaxMaps = 2
	cfg.MinMaps = 2
	cells, err := NewEngine(0).Evaluate(context.Background(), cfg, nil, []string{"adpcm"}, []dvfs.OperatingPoint{op(t, 560)})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(EvalSchemes()) {
		t.Errorf("got %d cells, want one per default scheme", len(cells))
	}
	for _, c := range cells {
		if c.Samples == 0 {
			t.Errorf("%s: no samples", c.Scheme)
		}
		if s := c.BaseShare + c.L1Share + c.MemShare; s < 0.99 || s > 1.01 {
			t.Errorf("%s: component shares sum to %v", c.Scheme, s)
		}
	}
}

func TestEvaluateRejectsBadConfig(t *testing.T) {
	if _, err := NewEngine(0).Evaluate(context.Background(), Config{}, nil, nil, nil); err == nil {
		t.Error("invalid config must be rejected")
	}
}

func TestWorkloadNamesCoverEvaluation(t *testing.T) {
	if len(workload.Names()) != 10 {
		t.Error("evaluation expects the paper's 10 benchmarks")
	}
}

func TestReportConfigSanity(t *testing.T) {
	cfg := ReportConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Margin != 0.05 {
		t.Errorf("ReportConfig margin = %v, want the paper's 5%%", cfg.Margin)
	}
	if cfg.MaxMaps < cfg.MinMaps || cfg.MaxMaps < 10 {
		t.Errorf("ReportConfig map bounds [%d,%d] too small", cfg.MinMaps, cfg.MaxMaps)
	}
}

func TestCellForMiss(t *testing.T) {
	if _, ok := CellFor(nil, FFWBBR, 400); ok {
		t.Error("CellFor on empty slice must report miss")
	}
}

func TestSECDEDRuns(t *testing.T) {
	// The ECC extension runs end to end; at 560 mV it behaves like a
	// +1-cycle defect-free cache, at 400 mV its residual uncorrectable
	// words cost extra L2 traffic.
	mk := func(mv int) cpu.Result {
		r, err := RunContext(context.Background(), RunSpec{Scheme: SECDEDScheme, Benchmark: "basicmath", Op: op(t, mv),
			MapSeed: 2, WorkSeed: 2, Instructions: 40_000, CPU: cpu.DefaultConfig()})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	hi, lo := mk(560), mk(400)
	if lo.L2Reads <= hi.L2Reads {
		t.Errorf("SECDED L2 traffic should grow with defect density: %d -> %d", hi.L2Reads, lo.L2Reads)
	}
	// Also covers the clean-map path.
	r, err := RunContext(context.Background(), RunSpec{Scheme: SECDEDScheme, Benchmark: "adpcm", Op: dvfs.Nominal(),
		WorkSeed: 1, Instructions: 10_000, CPU: cpu.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 10_000 {
		t.Error("SECDED at nominal failed")
	}
}

func TestAblationKnobsThroughRunSpec(t *testing.T) {
	// The Placement and Scatter knobs must flow through to FFW: the three
	// policies produce observably different executions.
	run := func(p ffw.WindowPlacement, scatter bool) float64 {
		r, err := RunContext(context.Background(), RunSpec{Scheme: FFWBBR, Benchmark: "adpcm", Op: op(t, 400),
			MapSeed: 4, WorkSeed: 4, Instructions: 40_000, CPU: cpu.DefaultConfig(),
			Placement: p, Scatter: scatter})
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles()
	}
	centered := run(ffw.PlacementCentered, false)
	firstK := run(ffw.PlacementFirstK, false)
	scatter := run(ffw.PlacementCentered, true)
	if centered == firstK && centered == scatter {
		t.Error("ablation knobs had no observable effect")
	}
}

func TestWilkersonPlainYieldWall(t *testing.T) {
	// At 560 mV most dies are coverable; at 400 mV none are: plain
	// word-disable refuses with ErrYield — the paper's Fig. 10 footnote
	// expressed as behaviour.
	ok560, fail400 := 0, 0
	for m := int64(0); m < 6; m++ {
		if _, err := RunContext(context.Background(), RunSpec{Scheme: WilkersonPlain, Benchmark: "adpcm", Op: op(t, 560),
			MapSeed: m, WorkSeed: 1, Instructions: 5_000, CPU: cpu.DefaultConfig()}); err == nil {
			ok560++
		}
		if _, err := RunContext(context.Background(), RunSpec{Scheme: WilkersonPlain, Benchmark: "adpcm", Op: op(t, 400),
			MapSeed: m, WorkSeed: 1, Instructions: 5_000, CPU: cpu.DefaultConfig()}); errors.Is(err, ErrYield) {
			fail400++
		}
	}
	if ok560 < 4 {
		t.Errorf("plain Wilkerson covered only %d/6 dies at 560mV", ok560)
	}
	if fail400 != 6 {
		t.Errorf("plain Wilkerson should refuse all 6 dies at 400mV, refused %d", fail400)
	}
}

// TestHitLatencyConstantAcrossRun pins the contract cpu.RunClocked
// relies on when it reads each cache's HitLatency once per run: every
// scheme's built caches report the same hit latency before and after a
// run, including FFW+BBR with runtime fault injection (whose recoveries
// disable frames and refetch blocks mid-run).
func TestHitLatencyConstantAcrossRun(t *testing.T) {
	type tc struct {
		name string
		spec RunSpec
	}
	var cases []tc
	for _, s := range AllSchemes() {
		cases = append(cases, tc{string(s), RunSpec{Scheme: s, Benchmark: "basicmath", Op: op(t, 400),
			MapSeed: 3, WorkSeed: 3, Instructions: 20_000, CPU: cpu.DefaultConfig()}})
	}
	cases = append(cases, tc{"FFW+BBR/inject", RunSpec{Scheme: FFWBBR, Benchmark: "basicmath", Op: op(t, 400),
		MapSeed: 3, WorkSeed: 3, Instructions: 20_000, CPU: cpu.DefaultConfig(),
		Inject: inject.Params{Seed: 5, Intensity: 3}}})
	for _, c := range cases {
		next := core.NewNextLevel(core.MemLatencyCycles(c.spec.Op.FreqMHz))
		ic, dc, stream, err := buildRig(c.spec, next)
		if errors.Is(err, ErrYield) {
			// Conventional and plain Wilkerson cannot run at 400 mV;
			// their caches are checked at the nominal point instead.
			c.spec.Op = dvfs.Nominal()
			next = core.NewNextLevel(core.MemLatencyCycles(c.spec.Op.FreqMHz))
			ic, dc, stream, err = buildRig(c.spec, next)
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		iBefore, dBefore := ic.HitLatency(), dc.HitLatency()
		// Table III's extra cycle is declared once in cacti and once in
		// each scheme; the two must agree.
		row, err := rowFor(c.spec.Scheme)
		if err != nil {
			t.Fatal(err)
		}
		base := cache.L1Config("").HitLatency
		if iBefore != base+row.iDesign.ExtraCycles || dBefore != base+row.dDesign.ExtraCycles {
			t.Errorf("%s: hit latency I %d D %d, cacti says I %d D %d", c.name, iBefore, dBefore,
				base+row.iDesign.ExtraCycles, base+row.dDesign.ExtraCycles)
		}
		if _, err := cpu.RunContext(context.Background(), c.spec.CPU, stream, ic, dc, next, c.spec.Instructions); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ic.HitLatency() != iBefore || dc.HitLatency() != dBefore {
			t.Errorf("%s: hit latency I %d->%d, D %d->%d across a run", c.name, iBefore, ic.HitLatency(), dBefore, dc.HitLatency())
		}
	}
}
