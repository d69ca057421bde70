package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/energy"
	"repro/internal/engine"
	"repro/internal/stats"
	"repro/internal/workload"
)

// EvalCell is one (scheme, operating point) cell of the paper's
// evaluation, aggregated over benchmarks and Monte Carlo fault maps. It
// feeds Figure 10 (NormRuntime and the component shares), Figure 11
// (L2PerKilo) and Figure 12 (NormEPI).
type EvalCell struct {
	Scheme    Scheme
	VoltageMV int

	// NormRuntime is runtime normalized to the defect-free baseline at
	// the same operating point (mean over benchmarks of per-benchmark
	// Monte Carlo means); RuntimeMoE is the worst per-benchmark 95%
	// margin of error.
	NormRuntime float64
	RuntimeMoE  float64
	// Runtime component shares (the paper's three-way split).
	BaseShare, L1Share, MemShare float64
	// L2PerKilo is demand L2 reads per 1000 useful instructions.
	L2PerKilo float64
	// NormEPI is energy per instruction normalized to the conventional
	// cache at 760 mV (geometric mean over benchmarks, as in the paper).
	NormEPI float64
	// Samples is total Monte Carlo runs folded in; YieldFails counts
	// fault maps the scheme could not cover.
	Samples    int
	YieldFails int
}

// Evaluate runs the full (scheme × operating point × benchmark) grid as
// engine jobs: every cell's per-benchmark Monte Carlo loop is one job,
// so whole cells and the loops inside them run in parallel up to the
// worker bound. Benchmarks defaults to the paper's ten when nil; ops
// defaults to the low-voltage region. Results merge by index; output is
// byte-identical at any worker count for the same cfg.Seed.
func (e *Engine) Evaluate(ctx context.Context, cfg Config, ss []Scheme, benchmarks []string, ops []dvfs.OperatingPoint) ([]EvalCell, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if benchmarks == nil {
		benchmarks = workload.Names()
	}
	if ops == nil {
		ops = dvfs.LowVoltagePoints()
	}
	if len(ss) == 0 {
		ss = EvalSchemes()
	}
	if len(ops) == 0 {
		return nil, errors.New("sim: no operating points")
	}
	if len(benchmarks) == 0 {
		return nil, errors.New("sim: no benchmarks")
	}
	if err := validateEvalInputs(ss, benchmarks); err != nil {
		return nil, err
	}

	base, err := e.newBaselines(ctx, cfg, benchmarks, ops)
	if err != nil {
		return nil, err
	}

	// One job per (cell, benchmark): cell order is op-major then scheme
	// (the presentation order), benchmarks innermost.
	nb := len(benchmarks)
	nCells := len(ops) * len(ss)
	samples, err := engine.Map(ctx, e.pool, nCells*nb, func(ctx context.Context, k int) (benchSamples, error) {
		ci, bi := k/nb, k%nb
		op, s := ops[ci/len(ss)], ss[ci%len(ss)]
		return e.evalBench(ctx, cfg, s, op, bi, benchmarks[bi], base)
	})
	if err != nil {
		return nil, err
	}

	cells := make([]EvalCell, 0, nCells)
	for ci := 0; ci < nCells; ci++ {
		cells = append(cells, foldCell(ss[ci%len(ss)], ops[ci/len(ss)], samples[ci*nb:(ci+1)*nb]))
	}
	return cells, nil
}

// baselines caches the per-benchmark reference runs: the defect-free
// cache at every operating point (runtime normalization) and the
// conventional cache at 760 mV (EPI normalization).
type baselines struct {
	defectFree map[string]map[int]cpu.Result // benchmark -> voltage -> result
	epi        map[string]cpu.Result         // benchmark -> conventional @760
	workSeed   map[string]int64
}

// newBaselines schedules every reference run — per benchmark, the
// defect-free cache at nominal plus each operating point, and the
// conventional cache at nominal — as one flat batch of engine jobs and
// assembles the lookup tables in index order. The runs go through the
// engine memo, so a later figure (or a second Evaluate on the same
// engine) reuses them instead of recomputing.
func (e *Engine) newBaselines(ctx context.Context, cfg Config, benchmarks []string, ops []dvfs.OperatingPoint) (*baselines, error) {
	b := &baselines{
		defectFree: make(map[string]map[int]cpu.Result),
		epi:        make(map[string]cpu.Result),
		workSeed:   make(map[string]int64),
	}
	for i, bench := range benchmarks {
		b.workSeed[bench] = cfg.Seed*1000 + int64(i)
	}

	allOps := append([]dvfs.OperatingPoint{dvfs.Nominal()}, ops...)
	per := len(allOps) + 1 // +1: the conventional EPI baseline
	results, err := engine.Map(ctx, e.pool, len(benchmarks)*per, func(ctx context.Context, k int) (cpu.Result, error) {
		bench := benchmarks[k/per]
		j := k % per
		if j == len(allOps) {
			r, err := e.Run(ctx, RunSpec{
				Scheme: Conventional, Benchmark: bench, Op: dvfs.Nominal(),
				MapSeed: 0, WorkSeed: b.workSeed[bench],
				Instructions: cfg.Instructions, CPU: cfg.CPU,
			})
			if err != nil {
				return cpu.Result{}, fmt.Errorf("EPI baseline %s: %w", bench, err)
			}
			return r, nil
		}
		op := allOps[j]
		r, err := e.Run(ctx, RunSpec{
			Scheme: DefectFree, Benchmark: bench, Op: op,
			MapSeed: 0, WorkSeed: b.workSeed[bench],
			Instructions: cfg.Instructions, CPU: cfg.CPU,
		})
		if err != nil {
			return cpu.Result{}, fmt.Errorf("baseline %s@%v: %w", bench, op, err)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	for bi, bench := range benchmarks {
		perOp := make(map[int]cpu.Result, len(allOps))
		for j, op := range allOps {
			perOp[op.VoltageMV] = results[bi*per+j]
		}
		b.defectFree[bench] = perOp
		b.epi[bench] = results[bi*per+len(allOps)]
	}
	return b, nil
}

// benchSamples holds one benchmark's Monte Carlo vectors for a cell.
type benchSamples struct {
	rt, l2k, epi          []float64
	base, l1c, mem, total float64
	yieldFails            int
}

// evalBench runs one benchmark's Monte Carlo loop for one cell — the
// paper's up-to-MaxMaps fault maps with the 95%/5% early-stopping rule.
// The loop itself is sequential (the stopping rule is a running
// decision over the samples drawn so far); parallelism comes from many
// of these jobs running at once. Cancellation is checked per map, so a
// failure elsewhere in the grid stops this job at the next draw.
func (e *Engine) evalBench(ctx context.Context, cfg Config, s Scheme, op dvfs.OperatingPoint, bi int, bench string, base *baselines) (benchSamples, error) {
	model := energy.DefaultModel()
	factor := L1StaticFactor(s)
	df := base.defectFree[bench][op.VoltageMV]
	epiBase := base.epi[bench]

	var bs benchSamples
	for m := 0; m < cfg.MaxMaps; m++ {
		if err := ctx.Err(); err != nil {
			return benchSamples{}, err
		}
		mapSeed := cfg.Seed*100_000 + int64(bi)*1000 + int64(m)
		r, err := e.Run(ctx, RunSpec{
			Scheme: s, Benchmark: bench, Op: op,
			MapSeed: mapSeed, WorkSeed: base.workSeed[bench],
			Instructions: cfg.Instructions, CPU: cfg.CPU,
		})
		if err != nil {
			if errors.Is(err, ErrYield) {
				bs.yieldFails++
				continue
			}
			return benchSamples{}, fmt.Errorf("%s/%s@%v map %d: %w", s, bench, op, m, err)
		}
		norm, err := model.Normalized(r, op, factor, epiBase)
		if err != nil {
			return benchSamples{}, err
		}
		bs.rt = append(bs.rt, r.Cycles()/df.Cycles())
		bs.l2k = append(bs.l2k, r.L2PerKiloInstr())
		bs.epi = append(bs.epi, norm)
		bs.base += r.BaseCycles
		bs.l1c += r.L1Cycles
		bs.mem += r.MemCycles
		bs.total += r.Cycles()
		if len(bs.rt) >= cfg.MinMaps && cfg.Margin > 0 && stats.Converged(bs.rt, cfg.Margin) {
			break
		}
	}
	return bs, nil
}

// foldCell aggregates the per-benchmark samples of one cell, in
// benchmark order, into the cell's figures.
func foldCell(s Scheme, op dvfs.OperatingPoint, results []benchSamples) EvalCell {
	cell := EvalCell{Scheme: s, VoltageMV: op.VoltageMV}
	var rtMeans, epiMeans, l2kMeans []float64
	var baseSum, l1Sum, memSum, totalSum float64
	for _, bs := range results {
		cell.YieldFails += bs.yieldFails
		cell.Samples += len(bs.rt)
		if len(bs.rt) == 0 {
			continue
		}
		rtMeans = append(rtMeans, stats.Mean(bs.rt))
		epiMeans = append(epiMeans, stats.Mean(bs.epi))
		l2kMeans = append(l2kMeans, stats.Mean(bs.l2k))
		if moe := stats.MarginOfError(bs.rt); moe > cell.RuntimeMoE && len(bs.rt) > 1 {
			cell.RuntimeMoE = moe
		}
		baseSum += bs.base
		l1Sum += bs.l1c
		memSum += bs.mem
		totalSum += bs.total
	}
	if len(rtMeans) > 0 {
		cell.NormRuntime = stats.Mean(rtMeans)
		cell.L2PerKilo = stats.Mean(l2kMeans)
		cell.NormEPI = stats.GeoMean(epiMeans)
	}
	if totalSum > 0 {
		cell.BaseShare = baseSum / totalSum
		cell.L1Share = l1Sum / totalSum
		cell.MemShare = memSum / totalSum
	}
	return cell
}

// CellFor finds a cell by scheme and voltage.
func CellFor(cells []EvalCell, s Scheme, voltageMV int) (EvalCell, bool) {
	for _, c := range cells {
		if c.Scheme == s && c.VoltageMV == voltageMV {
			return c, true
		}
	}
	return EvalCell{}, false
}
