package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/faultmap"
	"repro/internal/sim"
)

// The Figures 10–12 grid, sized so the per-access layers dominate:
// three benchmarks that load the L1, the write buffer and the L2 in
// different proportions (adpcm fits in L1 and hits; qsort is
// L2-resident and store-heavy; 429.mcf overflows the 512 KB L2), two
// operating points, a fixed number of fault maps and lvreport's run
// length.
var (
	fig10Schemes = append([]sim.Scheme{sim.DefectFree, sim.Conventional}, sim.EvalSchemes()...)
	fig10Benches = []string{"adpcm", "qsort", "429.mcf"}
	fig10MVs     = []int{560, 400}
)

const fig10Maps = 1

func fig10Config(seed int64) sim.Config {
	cfg := sim.ReportConfig()
	cfg.Seed = seed
	cfg.MinMaps, cfg.MaxMaps, cfg.Margin = fig10Maps, fig10Maps, 0
	return cfg
}

func fig10Ops() ([]dvfs.OperatingPoint, error) {
	var ops []dvfs.OperatingPoint
	for _, mv := range fig10MVs {
		op, err := dvfs.PointAt(mv)
		if err != nil {
			return nil, err
		}
		ops = append(ops, op)
	}
	return ops, nil
}

var fig10Workload = benchmark{
	name: "fig10",
	prepare: func(seed int64, _ int) (*iteration, error) {
		ops, err := fig10Ops()
		if err != nil {
			return nil, err
		}
		eng := sim.NewEngine(concurrency)
		return &iteration{
			run:   func(ctx context.Context) (iterOut, error) { return runFig10(ctx, eng, fig10Config(seed), ops) },
			close: func() {},
		}, nil
	},
	check: func(ctx context.Context, seed int64, out iterOut) error {
		ops, err := fig10Ops()
		if err != nil {
			return err
		}
		cells, err := sim.NewEngine(concurrency).Evaluate(ctx, fig10Config(seed), fig10Schemes, fig10Benches, ops)
		if err != nil {
			return err
		}
		want, err := json.Marshal(cells)
		if err != nil {
			return err
		}
		if string(want) != string(out.output) {
			return fmt.Errorf("per-scheme grid differs from one Evaluate over the whole grid")
		}
		return nil
	},
	trace: traceFig10,
}

// runFig10 evaluates the grid as a closed loop of `concurrency`
// clients, each issuing one scheme's slice of the grid at a time
// (baselines are shared through the engine's run memo), and assembles
// the cells in Evaluate's order: operating point, then scheme.
func runFig10(ctx context.Context, eng *sim.Engine, cfg sim.Config, ops []dvfs.OperatingPoint) (iterOut, error) {
	perScheme := make([][]sim.EvalCell, len(fig10Schemes))
	samples := make([]opSample, len(fig10Schemes))
	errs := make([]error, len(fig10Schemes))
	closedLoop(len(fig10Schemes), concurrency, func(i int) {
		t := time.Now()
		perScheme[i], errs[i] = eng.Evaluate(ctx, cfg, fig10Schemes[i:i+1], fig10Benches, ops)
		samples[i] = opSample{latency: time.Since(t), failed: errs[i] != nil}
	})
	out := iterOut{ops: samples}
	var cells []sim.EvalCell
	runs := uint64(len(fig10Benches) * (len(ops) + 2)) // baselines: defect-free at nominal and each point, conventional at nominal
	for oi := range ops {
		for si := range fig10Schemes {
			if errs[si] != nil {
				return out, errs[si]
			}
			cells = append(cells, perScheme[si][oi])
			runs += uint64(perScheme[si][oi].Samples)
		}
	}
	b, err := json.Marshal(cells)
	out.output, out.instrs = b, runs*cfg.Instructions
	return out, err
}

// fig10Runs lists every simulation Evaluate runs for the grid, each
// once (as the run memo does): the baselines, then the cells' fault
// maps, with Evaluate's seed derivation.
func fig10Runs(seed int64) ([]sim.RunSpec, error) {
	cfg := fig10Config(seed)
	ops, err := fig10Ops()
	if err != nil {
		return nil, err
	}
	var specs []sim.RunSpec
	for bi, b := range fig10Benches {
		ws := cfg.Seed*1000 + int64(bi)
		for _, op := range append([]dvfs.OperatingPoint{dvfs.Nominal()}, ops...) {
			specs = append(specs, sim.RunSpec{Scheme: sim.DefectFree, Benchmark: b, Op: op, WorkSeed: ws, Instructions: cfg.Instructions, CPU: cfg.CPU})
		}
		specs = append(specs, sim.RunSpec{Scheme: sim.Conventional, Benchmark: b, Op: dvfs.Nominal(), WorkSeed: ws, Instructions: cfg.Instructions, CPU: cfg.CPU})
	}
	for _, op := range ops {
		for _, s := range fig10Schemes {
			for bi, b := range fig10Benches {
				for m := 0; m < cfg.MaxMaps; m++ {
					specs = append(specs, sim.RunSpec{Scheme: s, Benchmark: b, Op: op,
						MapSeed: cfg.Seed*100_000 + int64(bi)*1000 + int64(m), WorkSeed: cfg.Seed*1000 + int64(bi),
						Instructions: cfg.Instructions, CPU: cfg.CPU})
				}
			}
		}
	}
	return specs, nil
}

// specKey is the span key of a run: its sim.SpecHash.
func specKey(kind string, spec any) string {
	b, err := json.Marshal(spec)
	if err != nil {
		return ""
	}
	return sim.SpecHash(kind, b)
}

func traceFig10(ctx context.Context, seed int64, tr *tracer) (layerMetrics, error) {
	specs, err := fig10Runs(seed)
	if err != nil {
		return nil, err
	}
	acc := newRunAcc()
	for _, spec := range specs {
		spec := spec
		in := runInputs{key: specKey("sim.run", spec), scheme: spec.Scheme, bench: spec.Benchmark, op: spec.Op,
			workSeed: spec.WorkSeed, n: spec.Instructions, cfg: spec.CPU}
		draw := func(tr *tracer) (*faultmap.Map, *faultmap.Map) { return drawMaps(tr, spec.Op.PfailBit, spec.MapSeed) }
		if err := traceRun(ctx, tr, acc, in, draw, func() (cpu.Result, error) { return sim.RunContext(ctx, spec) }, true); err != nil {
			return nil, err
		}
	}
	lm := layerMetrics{}
	acc.metrics(tr.spans, lm)
	if share := lm["sim.setup_share"]; share >= 0.05 {
		return nil, fmt.Errorf("run setup is %.1f%% of fig10's run time; the workload must stay under 5%%", 100*share)
	}

	// One untraced grid on the engine: its pool's busy share and memo use.
	ops, err := fig10Ops()
	if err != nil {
		return nil, err
	}
	eng := sim.NewEngine(concurrency)
	t := time.Now()
	if _, err := runFig10(ctx, eng, fig10Config(seed), ops); err != nil {
		return nil, err
	}
	wall := time.Since(t)
	hits, misses := eng.MemoStats()
	lm["engine.busy_frac"] = ratio(float64(acc.refNS), float64(concurrency)*float64(wall))
	lm["engine.memo_hit_frac"] = ratio(float64(hits), float64(hits+misses))
	return lm, nil
}
