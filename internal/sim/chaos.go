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
	"repro/internal/hier"
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
	if err := validateCampaign("chaos campaign", s.Epochs, s.EpochInstructions, s.Inject, s.Backoff); err != nil {
		return err
	}
	return validateDie(s.StartMV, s.Benchmark)
}

// validateCampaign checks the fields every chaos campaign shares; kind
// names the campaign in the epoch error.
func validateCampaign(kind string, epochs int, epochInstructions uint64, inj inject.Params, backoff dvfs.BackoffConfig) error {
	switch {
	case epochs <= 0:
		return fmt.Errorf("sim: %s needs positive epochs, got %d", kind, epochs)
	case epochInstructions == 0:
		return errors.New("sim: zero epoch instructions")
	}
	if err := inj.Validate(); err != nil {
		return err
	}
	return backoff.Validate()
}

// validateDie checks one campaign die's start point and benchmark.
func validateDie(startMV int, benchmark string) error {
	if _, err := dvfs.PointAt(startMV); err != nil {
		return err
	}
	_, err := workload.ByName(benchmark)
	return err
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
	// Each segment runs over a fresh inline L2 at the segment's clock.
	var next *core.NextLevel
	var stream *workload.Stream
	die := HierChaosCoreSpec{Benchmark: spec.Benchmark, DieSeed: spec.DieSeed, WorkSeed: spec.WorkSeed, StartMV: spec.StartMV}
	c, err := newCampaign(die, fmt.Sprintf("die %d", spec.DieSeed), 0, spec.Inject, spec.Backoff,
		func(op dvfs.OperatingPoint, rig hier.RigBuilder) error {
			n := core.NewNextLevel(core.MemLatencyCycles(op.FreqMHz))
			_, _, s, err := rig(n)
			if err == nil {
				next, stream = n, s
			}
			return err
		})
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

	if err := c.build(); err != nil {
		return nil, err
	}
	var normWeight, instrTotal float64
	for i := 0; i < spec.Epochs; i++ {
		r, rerr := cpu.RunContext(ctx, spec.CPU, stream, c.ic, c.dc, next, spec.EpochInstructions)
		if rerr != nil {
			return nil, rerr
		}
		ep, oerr := c.observe(r, i < spec.Epochs-1)
		if oerr != nil {
			return nil, oerr
		}
		if ep.NormEPI, err = model.Normalized(r, ep.Op, factor, baseline); err != nil {
			return nil, err
		}
		normWeight += ep.NormEPI * float64(r.Instructions)
		instrTotal += float64(r.Instructions)
	}
	res := &ChaosResult{Spec: spec, Epochs: c.epochs}
	if instrTotal > 0 {
		res.MeanNormEPI = normWeight / instrTotal
	}
	sum := c.summary()
	res.FinalMV, res.StepUps, res.StepDowns = sum.FinalMV, sum.StepUps, sum.StepDowns
	res.Totals, res.Residency = sum.Totals, sum.Residency
	return res, nil
}

// campaign is one die's fault-injection campaign: its nested fault
// maps, BBR program and back-off controller, and the ledger of the
// epochs it has run. RunChaos drives one over an inline L2;
// RunHierChaos drives one per core over the shared L2.
type campaign struct {
	what             string // names the die in a yield-failure error
	inj              inject.Params
	workSeed, salt   int64
	prof             workload.Profile
	prog             *program.Program
	seriesI, seriesD *faultmap.Series
	backoff          *dvfs.Backoff
	// attach installs a segment's rig at op over the driver's next level.
	attach func(op dvfs.OperatingPoint, rig hier.RigBuilder) error

	seg    int // voltage segments built so far
	ic     *bbr.ICache
	dc     *ffw.Cache
	prev   inject.Stats // the segment's cumulative counts at the last epoch
	totals inject.Stats
	epochs []ChaosEpoch
}

// newCampaign sets up die's campaign without building a rig. salt
// decorrelates injector streams across a hierarchy's cores; 0 for
// single-core, preserving the historical seeds bit for bit.
func newCampaign(die HierChaosCoreSpec, what string, salt int64, inj inject.Params, cfg dvfs.BackoffConfig,
	attach func(op dvfs.OperatingPoint, rig hier.RigBuilder) error) (*campaign, error) {

	prof, err := workload.ByName(die.Benchmark)
	if err != nil {
		return nil, err
	}
	backoff, err := dvfs.NewBackoff(cfg, die.StartMV)
	if err != nil {
		return nil, err
	}
	// The BBR program transform is voltage-independent; only the link
	// against the I-side fault map changes per point.
	prog, err := bbrProgram(prof, die.WorkSeed)
	if err != nil {
		return nil, err
	}
	c := &campaign{
		what: what, inj: inj, workSeed: die.WorkSeed, salt: salt,
		prof: prof, prog: prog, backoff: backoff, attach: attach,
	}
	// The die: nested manufacturing maps, same seed salts as SweepDie.
	c.seriesI, c.seriesD = dieSeries(die.DieSeed)
	return c, nil
}

// build equips the die for its controller's current operating point:
// the caches against that point's nested maps, the BBR link and fresh
// injectors for the new segment. Detection counters restart with the
// new rig.
func (c *campaign) build() error {
	return buildForcingUp(c.backoff, c.what, func(op dvfs.OperatingPoint) error {
		err := c.attach(op, func(next *core.NextLevel) (core.InstrCache, core.DataCache, *workload.Stream, error) {
			fmI, fmD := c.seriesI.MapAt(op.PfailBit), c.seriesD.MapAt(op.PfailBit)
			layout, err := link(c.prog, fmI)
			if err != nil {
				return nil, nil, nil, err
			}
			// Per-segment injector streams: distinct per voltage segment,
			// per core and per cache side, derived only from spec seeds
			// and the segment ordinal — never from scheduling.
			ic, dc, err := newFFWBBR(fmI, fmD, next, ffw.Options{}, c.inj.WithSeed(c.inj.Seed+c.salt+int64(c.seg)*7919), op.VoltageMV)
			if err != nil {
				return nil, nil, nil, err
			}
			c.ic, c.dc = ic, dc
			return ic, dc, workload.NewStream(c.prof, c.prog, layout, c.workSeed), nil
		})
		if err == nil {
			c.seg++
			c.prev = inject.Stats{}
		}
		return err
	})
}

// observe records one epoch run at the controller's current point and
// feeds its detected-fault rate to the controller. On a voltage step
// with more epochs to come, it rebuilds for the new point. The returned
// epoch stays valid until the next observe.
func (c *campaign) observe(r cpu.Result, more bool) (*ChaosEpoch, error) {
	op := c.backoff.Current()
	cum := c.ic.FaultStats()
	cum.Add(c.dc.FaultStats())
	delta := cum.Sub(c.prev)
	c.prev = cum
	rate := 1000 * float64(delta.Detected) / float64(r.Instructions)
	action := c.backoff.Observe(rate)
	c.totals.Add(delta)
	c.epochs = append(c.epochs, ChaosEpoch{
		Index: len(c.epochs), Op: op, Result: r, Faults: delta, Rate: rate, Action: action,
	})
	if action != dvfs.Hold && more {
		if err := c.build(); err != nil {
			return nil, err
		}
	}
	return &c.epochs[len(c.epochs)-1], nil
}

// summary is the campaign's closing ledger; the driver fills in Core
// and Benchmark where it reports them.
func (c *campaign) summary() HierChaosCoreSummary {
	return HierChaosCoreSummary{
		FinalMV: c.backoff.Current().VoltageMV,
		StepUps: c.backoff.StepUps(), StepDowns: c.backoff.StepDowns(),
		Totals: c.totals, Residency: residency(c.epochs),
	}
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
