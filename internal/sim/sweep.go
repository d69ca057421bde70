package sim

import (
	"context"
	"errors"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/energy"
	"repro/internal/engine"
)

// DieSweep evaluates one scheme on one *die* across the whole DVFS
// ladder: the fault maps at the different voltages come from a single
// nested random draw (faultmap.Series), so a word that fails at 560 mV is
// also failing at every lower point — exactly how a physical part
// degrades as it is scaled. This is the right tool for questions like
// "what is the energy-optimal operating point for THIS chip on THIS
// workload", which independent per-voltage maps would answer with
// inconsistent hardware.
type DieSweep struct {
	Scheme    Scheme
	Benchmark string
	Points    []DiePoint
}

// DiePoint is one operating point of a die sweep.
type DiePoint struct {
	Op      dvfs.OperatingPoint
	Result  cpu.Result
	NormEPI float64 // vs the same die's conventional run at 760 mV
	// Yield reports whether the scheme covered this die at this point
	// (false means the die must not be scaled this low under this
	// scheme; Result/NormEPI are zero).
	Yield bool
}

// SweepDie runs scheme × benchmark at every low-voltage operating point
// of one die (identified by dieSeed), plus the 760 mV conventional
// baseline used for EPI normalization, with each operating point as an
// engine job. The die's nested fault-map series is drawn once up front
// (its thresholds are fixed at construction, so per-point
// materialization is order-independent and read-only); the conventional
// baseline goes through the run memo, so sweeping many dies of the same
// benchmark on one engine simulates it only once.
func (e *Engine) SweepDie(ctx context.Context, scheme Scheme, benchmark string, dieSeed, workSeed int64, instructions uint64, cfg cpu.Config) (*DieSweep, error) {
	if err := (DieSpec{Scheme: scheme, Benchmark: benchmark, DieSeed: dieSeed, WorkSeed: workSeed, Instructions: instructions, CPU: cfg}).Validate(); err != nil {
		return nil, err
	}

	seriesI, seriesD := dieSeries(dieSeed)

	baseline, err := e.Run(ctx, RunSpec{
		Scheme: Conventional, Benchmark: benchmark, Op: dvfs.Nominal(),
		WorkSeed: workSeed, Instructions: instructions, CPU: cfg,
	})
	if err != nil {
		return nil, err
	}
	model := energy.DefaultModel()
	factor := L1StaticFactor(scheme)

	ops := dvfs.LowVoltagePoints()
	points, err := engine.Map(ctx, e.pool, len(ops), func(ctx context.Context, i int) (DiePoint, error) {
		op := ops[i]
		spec := RunSpec{Scheme: scheme, Benchmark: benchmark, Op: op, WorkSeed: workSeed, Instructions: instructions, CPU: cfg}
		r, err := runWithMaps(ctx, spec, seriesI.MapAt(op.PfailBit), seriesD.MapAt(op.PfailBit))
		if errors.Is(err, ErrYield) {
			return DiePoint{Op: op}, nil
		}
		if err != nil {
			return DiePoint{}, err
		}
		norm, err := model.Normalized(r, op, factor, baseline)
		if err != nil {
			return DiePoint{}, err
		}
		return DiePoint{Op: op, Result: r, NormEPI: norm, Yield: true}, nil
	})
	if err != nil {
		return nil, err
	}
	return &DieSweep{Scheme: scheme, Benchmark: benchmark, Points: points}, nil
}

// OptimalPoint returns the sweep's energy-minimal legal operating point,
// or false when the scheme covered no point.
func (s *DieSweep) OptimalPoint() (DiePoint, bool) {
	best := DiePoint{}
	found := false
	for _, p := range s.Points {
		if !p.Yield {
			continue
		}
		if !found || p.NormEPI < best.NormEPI {
			best, found = p, true
		}
	}
	return best, found
}
