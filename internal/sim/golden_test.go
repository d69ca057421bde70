package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/ffw"
	"repro/internal/golden"
	"repro/internal/inject"
)

// goldenInstr keeps every golden run short: the golden bytes pin run
// setup (fault-map draws, BBR transform and link, scheme construction,
// injector seeding) and the first twenty thousand instructions of every
// path.
const goldenInstr = 20_000

// goldenCases computes every pinned case, one line each, in a fixed
// order.
func goldenCases(t *testing.T) []byte {
	t.Helper()
	ctx := context.Background()
	cfg := cpu.DefaultConfig()
	backoff := dvfs.BackoffConfig{UpThreshold: 3, DownThreshold: 2, StableEpochs: 2}
	// Each case is one line, "<case>\t<bytes>": the result's JSON, or
	// only the class of its error: "yield" when the scheme could not
	// cover its fault map, "other" for any other failure.
	var out []byte
	add := func(name string, v any, err error) {
		b := []byte("error:other")
		switch {
		case errors.Is(err, ErrYield):
			b = []byte("error:yield")
		case err == nil:
			if b, err = json.Marshal(v); err != nil {
				t.Fatal(err)
			}
		}
		out = fmt.Appendf(out, "%s\t%s\n", name, b)
	}

	// Every scheme at every Table II voltage on two fault maps.
	mapBench := map[int64]string{1: "basicmath", 2: "dijkstra"}
	for _, s := range AllSchemes() {
		for _, op := range dvfs.OperatingPoints() {
			for _, seed := range []int64{1, 2} {
				r, err := RunContext(ctx, RunSpec{
					Scheme: s, Benchmark: mapBench[seed], Op: op,
					MapSeed: seed, WorkSeed: seed, Instructions: goldenInstr, CPU: cfg,
				})
				add(fmt.Sprintf("run/%s/%dmV/map%d", s, op.VoltageMV, seed), r, err)
			}
		}
	}

	// The FFW+BBR knobs a RunSpec carries: injection and the ablations.
	at440, err := dvfs.PointAt(440)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunContext(ctx, RunSpec{
		Scheme: FFWBBR, Benchmark: "qsort", Op: at440, MapSeed: 4, WorkSeed: 4,
		Instructions: goldenInstr, CPU: cfg, Inject: inject.Params{Seed: 5, Intensity: 3},
	})
	add("run/inject", r, err)
	r, err = RunContext(ctx, RunSpec{
		Scheme: FFWBBR, Benchmark: "qsort", Op: at440, MapSeed: 4, WorkSeed: 4,
		Instructions: goldenInstr, CPU: cfg, Placement: ffw.PlacementFirstK, Scatter: true,
	})
	add("run/ablation", r, err)

	// One die per scheme across the DVFS ladder.
	for _, s := range AllSchemes() {
		d, err := NewEngine(0).SweepDie(ctx, s, "qsort", 3, 1, goldenInstr, cfg)
		add(fmt.Sprintf("die/%s", s), d, err)
	}

	c, err := NewEngine(1).RunChaos(ctx, ChaosSpec{
		Benchmark: "qsort", DieSeed: 3, WorkSeed: 1,
		Inject:  inject.Params{Seed: 9, Intensity: 5},
		StartMV: 400, Epochs: 6, EpochInstructions: 8_000, CPU: cfg, Backoff: backoff,
	})
	add("chaos", c, err)

	h, err := RunHierarchy(ctx, HierSpec{
		Scheme: FFWBBR,
		Cores: []HierCoreSpec{
			{Benchmark: "qsort", MV: 400, MapSeed: 3, WorkSeed: 1},
			{Scheme: WilkersonPlus, Benchmark: "dijkstra", MV: 480, MapSeed: 4, WorkSeed: 2},
		},
		Instructions: goldenInstr, CPU: cfg,
	})
	add("hier", h, err)

	hc, err := RunHierChaos(ctx, HierChaosSpec{
		Cores: []HierChaosCoreSpec{
			{Benchmark: "qsort", DieSeed: 3, WorkSeed: 1, StartMV: 400},
			{Benchmark: "dijkstra", DieSeed: 4, WorkSeed: 2, StartMV: 440},
		},
		Inject: inject.Params{Seed: 9, Intensity: 5},
		Epochs: 6, EpochInstructions: 6_000, CPU: cfg, Backoff: backoff,
	})
	add("hierchaos", hc, err)

	for _, s := range append(AllSchemes(), "unknown") {
		add(fmt.Sprintf("static/%s", s), math.Float64bits(L1StaticFactor(s)), nil)
	}
	return out
}

// TestGoldenDigests pins the simulator's outputs byte for byte: every
// scheme's run at every operating point, every scheme's die sweep, an
// injected chaos campaign, a mixed-scheme hierarchy run, a hierarchy
// chaos campaign and every static-power factor. A refactor must leave
// every line unchanged; an intended numeric change installs the new
// golden file and says why.
func TestGoldenDigests(t *testing.T) {
	golden.Check(t, "testdata/cases.golden", goldenCases(t))
}
