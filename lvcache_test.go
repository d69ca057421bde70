package lvcache

import (
	"context"
	"testing"

	"repro/internal/cpu"
)

func TestFacadeConstants(t *testing.T) {
	if ConventionalVccminMV != 760 {
		t.Errorf("ConventionalVccminMV = %d", ConventionalVccminMV)
	}
	if got := len(EvalSchemes()); got != 6 {
		t.Errorf("EvalSchemes: %d, want 6", got)
	}
	if got := len(AllSchemes()); got != 13 {
		t.Errorf("AllSchemes: %d, want 13 (10 paper schemes + 3 extensions)", got)
	}
	if got := len(Benchmarks()); got != 10 {
		t.Errorf("Benchmarks: %d, want 10", got)
	}
	if got := len(Profiles()); got != 10 {
		t.Errorf("Profiles: %d, want 10", got)
	}
	if got := len(OperatingPoints()); got != 6 {
		t.Errorf("OperatingPoints: %d, want 6", got)
	}
	if got := len(LowVoltagePoints()); got != 5 {
		t.Errorf("LowVoltagePoints: %d, want 5", got)
	}
	if Nominal().VoltageMV != 760 {
		t.Error("Nominal should be the 760 mV point")
	}
}

func TestFacadeVccmin(t *testing.T) {
	if got := Vccmin(32*1024*8, 0.999); got < 759 || got > 761 {
		t.Errorf("Vccmin(32KB) = %.1f, want ~760", got)
	}
}

func TestFacadeTableIII(t *testing.T) {
	model, paper := TableIII(), PaperTableIII()
	if len(model) != len(paper) || len(model) != 7 {
		t.Fatalf("TableIII rows: model %d, paper %d, want 7", len(model), len(paper))
	}
	for i := range model {
		if model[i].Scheme != paper[i].Scheme {
			t.Errorf("row %d: %q vs %q", i, model[i].Scheme, paper[i].Scheme)
		}
	}
}

func TestFacadeRunAndEvaluate(t *testing.T) {
	var p400 OperatingPoint
	for _, op := range LowVoltagePoints() {
		if op.VoltageMV == 400 {
			p400 = op
		}
	}
	ctx := context.Background()
	eng := NewEngine(0)
	r, err := eng.Run(ctx, RunSpec{
		Scheme: FFWBBR, Benchmark: "adpcm", Op: p400,
		MapSeed: 1, WorkSeed: 1, Instructions: 20_000, CPU: cpu.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 20_000 {
		t.Errorf("Instructions = %d", r.Instructions)
	}

	cfg := QuickConfig()
	cfg.Instructions = 15_000
	cells, err := eng.Evaluate(ctx, cfg, []Scheme{FFWBBR}, []string{"adpcm"}, []OperatingPoint{p400})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 1 || cells[0].Scheme != FFWBBR || cells[0].Samples == 0 {
		t.Errorf("Evaluate cells = %+v", cells)
	}
}

func TestFacadeConfigs(t *testing.T) {
	if err := QuickConfig().Validate(); err != nil {
		t.Error(err)
	}
	if err := ReportConfig().Validate(); err != nil {
		t.Error(err)
	}
	if QuickConfig().Instructions >= ReportConfig().Instructions {
		t.Error("QuickConfig should be smaller than ReportConfig")
	}
}

func TestFacadeRunChaos(t *testing.T) {
	res, err := NewEngine(0).RunChaos(context.Background(), ChaosSpec{
		Benchmark: "qsort", DieSeed: 3, WorkSeed: 1,
		Inject:  InjectParams{Seed: 9, Intensity: 5},
		StartMV: 400, Epochs: 4, EpochInstructions: 20_000,
		CPU:     cpu.DefaultConfig(),
		Backoff: DefaultBackoffConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 4 {
		t.Fatalf("campaign ran %d epochs, want 4", len(res.Epochs))
	}
	if res.Totals.Detected == 0 {
		t.Error("campaign detected no injected faults")
	}
	if len(res.Residency) == 0 {
		t.Error("empty residency histogram")
	}
}
