package sim

import (
	"context"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/faultmap"
)

func TestSweepDieBasics(t *testing.T) {
	s, err := NewEngine(0).SweepDie(context.Background(), FFWBBR, "basicmath", 3, 3, 30_000, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Points) != 5 {
		t.Fatalf("points = %d, want 5", len(s.Points))
	}
	for _, p := range s.Points {
		if !p.Yield {
			t.Errorf("FFW+BBR should cover basicmath at %v", p.Op)
			continue
		}
		if p.NormEPI <= 0 || p.NormEPI >= 1 {
			t.Errorf("NormEPI at %v = %v, want in (0,1)", p.Op, p.NormEPI)
		}
	}
	best, ok := s.OptimalPoint()
	if !ok {
		t.Fatal("no optimal point")
	}
	for _, p := range s.Points {
		if p.Yield && p.NormEPI < best.NormEPI {
			t.Error("OptimalPoint is not minimal")
		}
	}
}

// TestSweepDieDefectsGrowMonotonically: on one die, each side's defect
// count can only grow as voltage falls. It checks the I- and D-side
// series that die sweeps and campaigns actually draw (dieSeries).
func TestSweepDieDefectsGrowMonotonically(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		seriesI, seriesD := dieSeries(seed)
		for side, series := range []*faultmap.Series{seriesI, seriesD} {
			prev := -1
			for _, op := range dvfs.LowVoltagePoints() {
				n := series.MapAt(op.PfailBit).CountDefective()
				if n < prev {
					t.Errorf("seed %d %s-side: %d defects at %d mV, %d one point higher",
						seed, [...]string{"I", "D"}[side], n, op.VoltageMV, prev)
				}
				prev = n
			}
		}
	}
}

func TestSweepDieCyclesGrowAsVoltageFalls(t *testing.T) {
	// On one die, deeper scaling can only add defects, so a scheme's
	// cycle count (same work) should not decrease from 560 mV to 400 mV
	// by more than noise.
	s, err := NewEngine(0).SweepDie(context.Background(), SimpleWdis, "dijkstra", 7, 7, 30_000, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	first := s.Points[0].Result.Cycles()
	last := s.Points[len(s.Points)-1].Result.Cycles()
	if last < first {
		t.Errorf("cycles fell from %v to %v as defects grew", first, last)
	}
}

func TestSweepDieValidation(t *testing.T) {
	if _, err := NewEngine(0).SweepDie(context.Background(), FFWBBR, "nope", 1, 1, 100, cpu.DefaultConfig()); err == nil {
		t.Error("unknown benchmark must error")
	}
	if _, err := NewEngine(0).SweepDie(context.Background(), FFWBBR, "adpcm", 1, 1, 0, cpu.DefaultConfig()); err == nil {
		t.Error("zero instructions must error")
	}
	if _, err := NewEngine(0).SweepDie(context.Background(), SECDEDScheme, "adpcm", 1, 1, 100, cpu.DefaultConfig()); err == nil {
		t.Error("SECDED die sweeps must be rejected")
	}
}

func TestSweepDieDeterministic(t *testing.T) {
	a, err := NewEngine(0).SweepDie(context.Background(), FFWBBR, "adpcm", 9, 9, 20_000, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(0).SweepDie(context.Background(), FFWBBR, "adpcm", 9, 9, 20_000, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Points {
		if a.Points[i].Result != b.Points[i].Result {
			t.Fatalf("point %d differs between identical sweeps", i)
		}
	}
}
