// Package sim is the experiment driver: it wires fault maps, schemes,
// workloads, the timing model and the energy model into the paper's
// evaluation — one RunContext per (scheme × benchmark × operating point
// × fault map), Monte Carlo aggregation with the paper's 95%/5%
// stopping rule, and one Engine method per table/figure
// (experiments.go, analysis.go).
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/bbr"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/inject"
	"repro/internal/program"
	"repro/internal/workload"
)

// Config scales the Monte Carlo experiment.
type Config struct {
	// Instructions is the useful-instruction count per run.
	Instructions uint64
	// MinMaps and MaxMaps bound the Monte Carlo fault maps per cell;
	// sampling stops early once Margin is reached (the paper's 95% CI /
	// 5% margin-of-error rule, up to 1000 maps).
	MinMaps, MaxMaps int
	// Margin is the relative 95%-CI half-width target (0 disables early
	// stopping).
	Margin float64
	// Seed derives all randomness.
	Seed int64
	// CPU is the core configuration.
	CPU cpu.Config
}

// QuickConfig is sized for unit tests and benchmarks.
func QuickConfig() Config {
	return Config{Instructions: 60_000, MinMaps: 2, MaxMaps: 3, Margin: 0, Seed: 1, CPU: cpu.DefaultConfig()}
}

// ReportConfig is sized for cmd/lvreport: long enough runs for stable
// cache behaviour, enough maps for the stopping rule to engage.
func ReportConfig() Config {
	return Config{Instructions: 400_000, MinMaps: 5, MaxMaps: 40, Margin: 0.05, Seed: 1, CPU: cpu.DefaultConfig()}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Instructions == 0:
		return errors.New("sim: zero instructions")
	case c.MinMaps < 1 || c.MaxMaps < c.MinMaps:
		return fmt.Errorf("sim: map bounds [%d,%d] invalid", c.MinMaps, c.MaxMaps)
	case c.Margin < 0:
		return errors.New("sim: negative margin")
	}
	return nil
}

// RunSpec pins one simulation.
type RunSpec struct {
	Scheme       Scheme
	Benchmark    string
	Op           dvfs.OperatingPoint
	MapSeed      int64 // fault-map randomness (the Monte Carlo variable)
	WorkSeed     int64 // workload randomness (fixed across schemes for pairing)
	Instructions uint64
	CPU          cpu.Config
	// Placement overrides FFW's window policy (ablation); zero value is
	// the paper's centered policy.
	Placement ffw.WindowPlacement
	// Scatter enables FFW's non-contiguous stored-pattern extension
	// (ablation; not the paper's mechanism).
	Scatter bool
	// Inject configures the runtime fault-injection layer (package
	// inject). The zero value — injection disabled — reproduces the
	// static-fault-map behaviour bit for bit. Only FFW+BBR carries the
	// detection/recovery machinery, so injection on any other scheme is
	// rejected.
	Inject inject.Params
}

// ErrYield is wrapped when a scheme cannot guarantee correct operation on
// the drawn fault map (a chip-yield event, e.g. BBR finding no chunk for
// some block).
var ErrYield = errors.New("sim: scheme cannot cover fault map")

const l1Words = 32 * 1024 / 4

// RunContext executes one simulation and returns the timing result. The
// context is threaded into the instruction loop, so cancellation (per-job
// timeouts in campaign drivers) aborts the run promptly.
func RunContext(ctx context.Context, spec RunSpec) (cpu.Result, error) {
	fmI, fmD := drawMaps(faultmap.Generate, spec.Op.PfailBit, spec.MapSeed)
	return runWithMaps(ctx, spec, fmI, fmD)
}

// runWithMaps is RunContext over caller-supplied fault maps (die sweeps
// pass voltage-nested maps rather than independent draws).
func runWithMaps(ctx context.Context, spec RunSpec, fmI, fmD *faultmap.Map) (cpu.Result, error) {
	next := core.NewNextLevel(core.MemLatencyCycles(spec.Op.FreqMHz))
	ic, dc, stream, err := buildRigWithMaps(spec, fmI, fmD, next)
	if err != nil {
		return cpu.Result{}, err
	}
	return cpu.RunContext(ctx, spec.CPU, stream, ic, dc, next, spec.Instructions)
}

// buildRig draws the spec's independent fault maps and assembles its
// rig over the provided next level.
func buildRig(spec RunSpec, next *core.NextLevel) (core.InstrCache, core.DataCache, *workload.Stream, error) {
	fmI, fmD := drawMaps(faultmap.Generate, spec.Op.PfailBit, spec.MapSeed)
	return buildRigWithMaps(spec, fmI, fmD, next)
}

// buildRigWithMaps assembles the spec's program, layout, scheme caches
// and instruction stream over the given fault maps and next level. It
// is the single construction path shared by the trace-driven runs
// (inline per-core L2) and the event-driven hierarchy (a port-backed
// next level) — which is how fault injection, BBR linking and
// frame-disable semantics carry over to multicore runs unchanged.
func buildRigWithMaps(spec RunSpec, fmI, fmD *faultmap.Map, next *core.NextLevel) (core.InstrCache, core.DataCache, *workload.Stream, error) {
	prof, err := workload.ByName(spec.Benchmark)
	if err != nil {
		return nil, nil, nil, err
	}
	if spec.Instructions == 0 {
		return nil, nil, nil, errors.New("sim: zero instructions")
	}
	row, err := rowFor(spec.Scheme)
	if err != nil {
		return nil, nil, nil, err
	}
	if spec.Inject.Enabled() {
		if err := checkInject(spec.Scheme); err != nil {
			return nil, nil, nil, err
		}
	}

	var prog *program.Program
	var layout program.Layout
	if row.bbr {
		if prog, err = bbrProgram(prof, spec.WorkSeed); err != nil {
			return nil, nil, nil, err
		}
		if layout, err = link(prog, fmI); err != nil {
			return nil, nil, nil, err
		}
	} else {
		if prog, err = workload.BuildProgram(prof, spec.WorkSeed, nil); err != nil {
			return nil, nil, nil, err
		}
		layout = program.NewSequentialLayout(prog, 0)
	}

	ic, dc, err := row.build(spec, fmI, fmD, next)
	if err != nil {
		return nil, nil, nil, err
	}
	return ic, dc, workload.NewStream(prof, prog, layout, spec.WorkSeed), nil
}

// drawMaps draws a run's independent I- and D-side fault maps with gen
// (faultmap.Generate, or GenerateSECDED for the multi-bit rate).
func drawMaps(gen func(int, float64, *rand.Rand) *faultmap.Map, pfailBit float64, mapSeed int64) (fmI, fmD *faultmap.Map) {
	draw := func(seed int64) *faultmap.Map {
		if pfailBit <= 0 {
			return faultmap.New(l1Words)
		}
		return gen(l1Words, pfailBit, rand.New(rand.NewSource(seed)))
	}
	return draw(mapSeed*2 + 11), draw(mapSeed*2 + 12)
}

// dieSeries returns one die's voltage-nested I- and D-side fault-map
// series (the die-seed salts every die driver shares).
func dieSeries(dieSeed int64) (seriesI, seriesD *faultmap.Series) {
	return faultmap.NewSeries(l1Words, rand.New(rand.NewSource(dieSeed*2+11))),
		faultmap.NewSeries(l1Words, rand.New(rand.NewSource(dieSeed*2+12)))
}

// bbrProgram builds the workload's program through the BBR transform.
// The transform is fault-map independent; only link depends on the map.
func bbrProgram(prof workload.Profile, seed int64) (*program.Program, error) {
	return workload.BuildProgram(prof, seed, func(p *program.Program) (*program.Program, error) {
		t, _, err := bbr.Transform(p, bbr.DefaultTransformConfig())
		return t, err
	})
}

// link places a BBR-transformed program around the I-side fault map; a
// basic block no chunk can hold is a yield failure.
func link(prog *program.Program, fmI *faultmap.Map) (program.Layout, error) {
	layout, err := bbr.Link(prog, fmI, 0)
	if errors.Is(err, bbr.ErrUnplaceable) {
		return nil, fmt.Errorf("%w: %v", ErrYield, err)
	}
	if err != nil {
		return nil, err
	}
	return layout, nil
}

// newFFWBBR builds the paper's proposal: a BBR instruction cache and an
// FFW data cache. When inj is enabled, each cache gets its own injector
// stream, salted from inj.Seed so the I- and D-side injectors never
// correlate.
func newFFWBBR(fmI, fmD *faultmap.Map, next *core.NextLevel, opts ffw.Options, inj inject.Params, mv int) (*bbr.ICache, *ffw.Cache, error) {
	ic, err := bbr.NewICache(fmI, next)
	if err != nil {
		return nil, nil, err
	}
	if inj.Enabled() {
		injI, err := inject.New(l1Words, mv, inj.WithSeed(inj.Seed*2+21))
		if err != nil {
			return nil, nil, err
		}
		injD, err := inject.New(l1Words, mv, inj.WithSeed(inj.Seed*2+22))
		if err != nil {
			return nil, nil, err
		}
		ic.AttachInjector(injI)
		opts.Injector = injD
	}
	dc, err := ffw.New(fmD, next, opts)
	return ic, dc, err
}
