package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bbr"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/energy"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/inject"
	"repro/internal/program"
	"repro/internal/workload"
)

// ChaosSpec pins one fault-injection campaign: FFW+BBR running one die
// under runtime fault injection, with the dvfs.Backoff controller
// steering the operating point epoch by epoch. All randomness derives
// from the seeds, so a campaign is byte-identical at any worker count.
type ChaosSpec struct {
	// Scheme must support runtime fault injection (FFW+BBR, the only
	// scheme carrying detection and recovery machinery); empty selects
	// FFW+BBR.
	Scheme Scheme
	// Benchmark names the workload profile.
	Benchmark string
	// DieSeed identifies the die: its voltage-nested manufacturing fault
	// maps (faultmap.Series, as in SweepDie).
	DieSeed int64
	// WorkSeed derives the workload randomness.
	WorkSeed int64
	// Inject configures the runtime fault layer; its Seed salts the
	// per-cache injectors. Intensity 0 runs a fault-free campaign (the
	// controller then creeps to the lowest rung and stays).
	Inject inject.Params
	// StartMV is the initial operating point (a Table II voltage).
	StartMV int
	// Epochs and EpochInstructions size the campaign: the controller
	// observes the detected-fault rate once per epoch.
	Epochs            int
	EpochInstructions uint64
	// CPU is the core configuration.
	CPU cpu.Config
	// Backoff tunes the graceful-degradation controller.
	Backoff dvfs.BackoffConfig
}

// Validate checks the specification.
func (s ChaosSpec) Validate() error {
	if s.Scheme != "" {
		if err := checkInject(s.Scheme); err != nil {
			return err
		}
	}
	switch {
	case s.Epochs <= 0:
		return fmt.Errorf("sim: chaos campaign needs positive epochs, got %d", s.Epochs)
	case s.EpochInstructions == 0:
		return errors.New("sim: zero epoch instructions")
	}
	if err := s.Inject.Validate(); err != nil {
		return err
	}
	if err := s.Backoff.Validate(); err != nil {
		return err
	}
	if _, err := dvfs.PointAt(s.StartMV); err != nil {
		return err
	}
	if _, err := workload.ByName(s.Benchmark); err != nil {
		return err
	}
	return nil
}

// ChaosEpoch is one controller epoch of a campaign.
type ChaosEpoch struct {
	Index  int
	Op     dvfs.OperatingPoint
	Result cpu.Result
	// Faults is the epoch's detection/recovery delta (both caches).
	Faults inject.Stats
	// Rate is detected faults per kilo-instruction — the controller's
	// input for this epoch.
	Rate float64
	// Action is the controller's decision after observing the epoch.
	Action dvfs.BackoffAction
	// NormEPI is the epoch's energy per instruction, normalized to the
	// conventional cache at 760 mV.
	NormEPI float64
}

// Residency is the campaign time spent at one operating point.
type Residency struct {
	VoltageMV    int
	Epochs       int
	Instructions uint64
	// Frac is the fraction of campaign instructions at this voltage.
	Frac float64
}

// ChaosResult aggregates one campaign.
type ChaosResult struct {
	Spec   ChaosSpec
	Epochs []ChaosEpoch
	// Residency is the effective-voltage histogram, highest voltage
	// first, only voltages actually visited.
	Residency []Residency
	// Totals is the whole-campaign detection/recovery ledger.
	Totals inject.Stats
	// MeanNormEPI is the instruction-weighted mean normalized EPI across
	// epochs — the campaign's energy impact including back-off residency.
	MeanNormEPI float64
	// FinalMV is the operating point after the last epoch.
	FinalMV int
	// StepUps / StepDowns count controller transitions (StepUps includes
	// forced escalations on yield failures).
	StepUps, StepDowns int
}

// chaosRig is the live hardware for one voltage segment.
type chaosRig struct {
	ic     *bbr.ICache
	dc     *ffw.Cache
	next   *core.NextLevel
	stream *workload.Stream
}

// RunChaos executes one fault-injection campaign. The die's fault maps
// are voltage-nested (one faultmap.Series per cache, as in SweepDie);
// every voltage transition rebuilds the caches against the new point's
// map — per the paper's mode-switch semantics, contents do not survive
// a DVFS transition — relinks the BBR program, and reseeds fresh
// injectors for the segment. If BBR cannot cover the die at a point
// (yield failure), the controller is forced up a step and the rebuild
// retried; a die that fails even at the top rung aborts the campaign.
func (e *Engine) RunChaos(ctx context.Context, spec ChaosSpec) (*ChaosResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	prof, err := workload.ByName(spec.Benchmark)
	if err != nil {
		return nil, err
	}
	backoff, err := dvfs.NewBackoff(spec.Backoff, spec.StartMV)
	if err != nil {
		return nil, err
	}

	// The die: nested manufacturing maps, same seed salts as SweepDie.
	seriesI, seriesD := dieSeries(spec.DieSeed)

	// The BBR program transform is voltage-independent; only the link
	// against the I-side fault map changes per point.
	prog, err := bbrProgram(prof, spec.WorkSeed)
	if err != nil {
		return nil, err
	}

	// Energy normalization baseline: conventional at nominal, one epoch
	// of work; shared through the run memo across campaigns.
	baseline, err := e.Run(ctx, RunSpec{
		Scheme: Conventional, Benchmark: spec.Benchmark, Op: dvfs.Nominal(),
		WorkSeed: spec.WorkSeed, Instructions: spec.EpochInstructions, CPU: spec.CPU,
	})
	if err != nil {
		return nil, err
	}
	model := energy.DefaultModel()
	factor := L1StaticFactor(FFWBBR)

	// build constructs the rig for the controller's current operating
	// point. seg numbers the voltage segments so each gets independent
	// injector streams.
	seg := 0
	var rig *chaosRig
	build := func() error {
		return buildForcingUp(backoff, fmt.Sprintf("die %d", spec.DieSeed), func(op dvfs.OperatingPoint) error {
			next := core.NewNextLevel(core.MemLatencyCycles(op.FreqMHz))
			ic, dc, stream, berr := buildChaosRig(spec.Inject, spec.WorkSeed, 0, prof, prog, op, seriesI, seriesD, seg, next)
			if berr != nil {
				return berr
			}
			seg++
			rig = &chaosRig{ic: ic, dc: dc, next: next, stream: stream}
			return nil
		})
	}
	if err := build(); err != nil {
		return nil, err
	}

	res := &ChaosResult{Spec: spec}
	var prev inject.Stats
	var normWeight, instrTotal float64
	for i := 0; i < spec.Epochs; i++ {
		op := backoff.Current()
		r, rerr := cpu.RunContext(ctx, spec.CPU, rig.stream, rig.ic, rig.dc, rig.next, spec.EpochInstructions)
		if rerr != nil {
			return nil, rerr
		}
		cum := rig.ic.FaultStats()
		cum.Add(rig.dc.FaultStats())
		delta := cum.Sub(prev)
		prev = cum

		rate := 1000 * float64(delta.Detected) / float64(r.Instructions)
		action := backoff.Observe(rate)
		norm, nerr := model.Normalized(r, op, factor, baseline)
		if nerr != nil {
			return nil, nerr
		}
		res.Epochs = append(res.Epochs, ChaosEpoch{
			Index: i, Op: op, Result: r, Faults: delta, Rate: rate, Action: action, NormEPI: norm,
		})
		res.Totals.Add(delta)
		normWeight += norm * float64(r.Instructions)
		instrTotal += float64(r.Instructions)

		if action != dvfs.Hold && i < spec.Epochs-1 {
			// Voltage transition: rebuild against the new point's nested
			// map, relink, fresh injectors. Detection counters restart
			// with the new rig.
			if err := build(); err != nil {
				return nil, err
			}
			prev = inject.Stats{}
		}
	}
	if instrTotal > 0 {
		res.MeanNormEPI = normWeight / instrTotal
	}
	res.FinalMV = backoff.Current().VoltageMV
	res.StepUps, res.StepDowns = backoff.StepUps(), backoff.StepDowns()
	res.Residency = residency(res.Epochs)
	return res, nil
}

// buildForcingUp calls build at the controller's current operating
// point until the rig builds, forcing the controller up a step after
// each yield failure. A die uncoverable even at the top rung is an
// error naming it as what.
func buildForcingUp(backoff *dvfs.Backoff, what string, build func(op dvfs.OperatingPoint) error) error {
	for {
		op := backoff.Current()
		err := build(op)
		if !errors.Is(err, ErrYield) {
			return err
		}
		if !backoff.ForceUp() {
			return fmt.Errorf("%s uncoverable even at %d mV: %w", what, op.VoltageMV, err)
		}
	}
}

// buildChaosRig assembles the caches, link and stream for one voltage
// segment of a campaign over the given next level — the shared path
// between single-core campaigns (inline L2) and hierarchy campaigns
// (port-backed shared L2). coreSalt decorrelates injector streams
// across a hierarchy's cores; 0 for single-core, preserving the
// historical seeds bit for bit.
func buildChaosRig(inj inject.Params, workSeed, coreSalt int64, prof workload.Profile, prog *program.Program,
	op dvfs.OperatingPoint, seriesI, seriesD *faultmap.Series, seg int, next *core.NextLevel) (*bbr.ICache, *ffw.Cache, *workload.Stream, error) {

	fmI, fmD := seriesI.MapAt(op.PfailBit), seriesD.MapAt(op.PfailBit)
	layout, err := link(prog, fmI)
	if err != nil {
		return nil, nil, nil, err
	}
	// Per-segment injector streams: distinct per voltage segment, per
	// core and per cache side, derived only from spec seeds and the
	// segment ordinal — never from scheduling.
	ic, dc, err := newFFWBBR(fmI, fmD, next, ffw.Options{}, inj.WithSeed(inj.Seed+coreSalt+int64(seg)*7919), op.VoltageMV)
	if err != nil {
		return nil, nil, nil, err
	}
	return ic, dc, workload.NewStream(prof, prog, layout, workSeed), nil
}

// residency folds epochs into the effective-voltage histogram, highest
// voltage first.
func residency(epochs []ChaosEpoch) []Residency {
	byMV := map[int]*Residency{}
	var total uint64
	for _, ep := range epochs {
		r := byMV[ep.Op.VoltageMV]
		if r == nil {
			r = &Residency{VoltageMV: ep.Op.VoltageMV}
			byMV[ep.Op.VoltageMV] = r
		}
		r.Epochs++
		r.Instructions += ep.Result.Instructions
		total += ep.Result.Instructions
	}
	var out []Residency
	for _, p := range dvfs.OperatingPoints() { // descending voltage
		if r := byMV[p.VoltageMV]; r != nil {
			if total > 0 {
				r.Frac = float64(r.Instructions) / float64(total)
			}
			out = append(out, *r)
		}
	}
	return out
}
