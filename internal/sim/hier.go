// Event-driven multicore experiments: N cores (each a full L1 scheme
// rig) sharing one banked L2 through the internal/hier components, with
// per-core voltage domains. The construction paths shared with the
// trace-driven model (buildRig, and the chaos campaign's build) plus
// the calibration regression test (hier_test.go) keep the two models
// from silently diverging.

package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/hier"
	"repro/internal/inject"
	"repro/internal/workload"
)

// CalibrationTolerance is the pinned relative cycle-count tolerance
// between the event-driven single-core configuration and the
// trace-driven baseline on the anchor points. The residual comes from
// the effects the event model adds on purpose — L2 write-bandwidth
// (bank) contention from write-buffer drains, and wall-clock DRAM
// latency folded into one ceiling instead of two. DESIGN.md documents
// the argument; the regression test enforces the bound.
const CalibrationTolerance = 0.02

// HierCoreSpec pins one core of a hierarchy run.
type HierCoreSpec struct {
	// Scheme overrides the run-level scheme for this core (empty =
	// inherit) — heterogeneous-scheme hierarchies are allowed.
	Scheme    Scheme `json:"scheme,omitempty"`
	Benchmark string `json:"benchmark"`
	// MV selects the core's voltage domain (a Table II point).
	MV       int   `json:"mv"`
	MapSeed  int64 `json:"map_seed"`
	WorkSeed int64 `json:"work_seed"`
}

// HierSpec pins one event-driven multicore run: every core executes
// Instructions useful instructions against the shared L2.
type HierSpec struct {
	Scheme Scheme         `json:"scheme"`
	Cores  []HierCoreSpec `json:"cores"`
	// L2MV selects the uncore (shared L2) clock domain; 0 = nominal.
	L2MV int `json:"l2_mv,omitempty"`
	// Banks / MSHRs override the L2 defaults when positive.
	Banks        int        `json:"banks,omitempty"`
	MSHRs        int        `json:"mshrs,omitempty"`
	Instructions uint64     `json:"instructions"`
	CPU          cpu.Config `json:"cpu"`
}

// schemeFor resolves core i's effective scheme.
func (s HierSpec) schemeFor(i int) Scheme {
	if cs := s.Cores[i].Scheme; cs != "" {
		return cs
	}
	return s.Scheme
}

// l2Point resolves a spec's L2MV to the uncore operating point; 0
// means nominal.
func l2Point(mv int) (dvfs.OperatingPoint, error) {
	if mv == 0 {
		return dvfs.Nominal(), nil
	}
	return dvfs.PointAt(mv)
}

// Validate checks the specification.
func (s HierSpec) Validate() error {
	if len(s.Cores) == 0 {
		return errors.New("sim: hierarchy needs at least one core")
	}
	if s.Instructions == 0 {
		return errors.New("sim: zero instructions")
	}
	if _, err := l2Point(s.L2MV); err != nil {
		return err
	}
	for i, cs := range s.Cores {
		if err := CheckScheme(s.schemeFor(i), false); err != nil {
			return fmt.Errorf("sim: core %d: %w", i, err)
		}
		if _, err := dvfs.PointAt(cs.MV); err != nil {
			return fmt.Errorf("sim: core %d: %w", i, err)
		}
		if _, err := workload.ByName(cs.Benchmark); err != nil {
			return fmt.Errorf("sim: core %d: %w", i, err)
		}
	}
	return nil
}

// newHierarchy builds a hierarchy of n cores over a shared L2 clocked
// at l2MV (0 = nominal); banks and mshrs override the L2 defaults when
// positive.
func newHierarchy(n, l2MV, banks, mshrs int) (*hier.Hierarchy, dvfs.OperatingPoint, error) {
	l2op, err := l2Point(l2MV)
	if err != nil {
		return nil, l2op, err
	}
	p := hier.DefaultL2Params(l2op)
	if banks > 0 {
		p.Banks = banks
	}
	if mshrs > 0 {
		p.MSHRs = mshrs
	}
	h, err := hier.New(hier.Config{Cores: n, L2: p})
	return h, l2op, err
}

// HierCoreResult is one core's outcome.
type HierCoreResult struct {
	Core      int        `json:"core"`
	Scheme    Scheme     `json:"scheme"`
	Benchmark string     `json:"benchmark"`
	MV        int        `json:"mv"`
	Result    cpu.Result `json:"result"`
}

// HierResult aggregates one hierarchy run. All fields round-trip JSON
// exactly, so distributed results format byte-identically.
type HierResult struct {
	// YieldFail marks a die set whose fault maps no core scheme could
	// cover — a datum (lvsim counts it), not an error, on the grid path.
	YieldFail bool             `json:"yield_fail,omitempty"`
	Cores     []HierCoreResult `json:"cores"`
	L2        hier.L2Stats     `json:"l2"`
	L2MV      int              `json:"l2_mv"`
	// ElapsedFS is the simulated end time in femtoseconds.
	ElapsedFS int64 `json:"elapsed_fs"`
	// Events counts kernel events processed (throughput accounting).
	Events uint64 `json:"events"`
}

// RunHierarchy executes one event-driven multicore run. A yield
// failure on any core (scheme cannot cover its drawn fault map) fails
// the whole run with ErrYield wrapped — a chip with an uncoverable
// core is an uncoverable chip.
func RunHierarchy(ctx context.Context, spec HierSpec) (*HierResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	h, l2op, err := newHierarchy(len(spec.Cores), spec.L2MV, spec.Banks, spec.MSHRs)
	if err != nil {
		return nil, err
	}
	for i, cs := range spec.Cores {
		op, perr := dvfs.PointAt(cs.MV)
		if perr != nil {
			return nil, perr
		}
		rs := RunSpec{
			Scheme: spec.schemeFor(i), Benchmark: cs.Benchmark, Op: op,
			MapSeed: cs.MapSeed, WorkSeed: cs.WorkSeed,
			Instructions: spec.Instructions, CPU: spec.CPU,
		}
		if err := h.SetRig(i, op, spec.CPU, func(next *core.NextLevel) (core.InstrCache, core.DataCache, *workload.Stream, error) {
			return buildRig(rs, next)
		}); err != nil {
			return nil, fmt.Errorf("core %d: %w", i, err)
		}
	}
	results, err := h.RunEpoch(ctx, spec.Instructions)
	if err != nil {
		return nil, err
	}
	out := &HierResult{L2: h.L2Stats(), L2MV: l2op.VoltageMV, ElapsedFS: int64(h.Now()), Events: h.Events()}
	for i, r := range results {
		out.Cores = append(out.Cores, HierCoreResult{
			Core: i, Scheme: spec.schemeFor(i), Benchmark: spec.Cores[i].Benchmark,
			MV: spec.Cores[i].MV, Result: r,
		})
	}
	return out, nil
}

// HierChaosCoreSpec pins one core of a hierarchy chaos campaign.
type HierChaosCoreSpec struct {
	Benchmark string `json:"benchmark"`
	DieSeed   int64  `json:"die_seed"`
	WorkSeed  int64  `json:"work_seed"`
	StartMV   int    `json:"start_mv"`
}

// HierChaosSpec pins one multicore fault-injection campaign: every
// core runs FFW+BBR under runtime injection with its own
// dvfs.Backoff controller steering its private voltage domain, while
// all cores contend for the shared L2. Epochs are a global barrier:
// each epoch every core runs EpochInstructions, then every controller
// observes its core's detected-fault rate.
type HierChaosSpec struct {
	Cores  []HierChaosCoreSpec `json:"cores"`
	Inject inject.Params       `json:"inject"`
	// L2MV fixes the uncore domain for the whole campaign; 0 = nominal.
	L2MV              int                `json:"l2_mv,omitempty"`
	Banks             int                `json:"banks,omitempty"`
	MSHRs             int                `json:"mshrs,omitempty"`
	Epochs            int                `json:"epochs"`
	EpochInstructions uint64             `json:"epoch_instructions"`
	CPU               cpu.Config         `json:"cpu"`
	Backoff           dvfs.BackoffConfig `json:"backoff"`
}

// Validate checks the specification.
func (s HierChaosSpec) Validate() error {
	if len(s.Cores) == 0 {
		return errors.New("sim: hierarchy campaign needs at least one core")
	}
	if err := validateCampaign("hierarchy campaign", s.Epochs, s.EpochInstructions, s.Inject, s.Backoff); err != nil {
		return err
	}
	if _, err := l2Point(s.L2MV); err != nil {
		return err
	}
	for i, cs := range s.Cores {
		if err := validateDie(cs.StartMV, cs.Benchmark); err != nil {
			return fmt.Errorf("sim: core %d: %w", i, err)
		}
	}
	return nil
}

// HierChaosCoreEpoch is one core's slice of one campaign epoch.
type HierChaosCoreEpoch struct {
	Core int `json:"core"`
	// MV is the voltage the core ran this epoch at.
	MV     int                `json:"mv"`
	Result cpu.Result         `json:"result"`
	Faults inject.Stats       `json:"faults"`
	Rate   float64            `json:"rate"`
	Action dvfs.BackoffAction `json:"action"`
}

// HierChaosEpoch is one global epoch: all cores plus the L2's
// contention delta for the epoch.
type HierChaosEpoch struct {
	Index int                  `json:"index"`
	Cores []HierChaosCoreEpoch `json:"cores"`
	L2    hier.L2Stats         `json:"l2"`
}

// HierChaosCoreSummary is one core's whole-campaign ledger.
type HierChaosCoreSummary struct {
	Core      int          `json:"core"`
	Benchmark string       `json:"benchmark"`
	FinalMV   int          `json:"final_mv"`
	StepUps   int          `json:"step_ups"`
	StepDowns int          `json:"step_downs"`
	Totals    inject.Stats `json:"totals"`
	Residency []Residency  `json:"residency"`
}

// HierChaosResult aggregates one multicore campaign.
type HierChaosResult struct {
	Spec   HierChaosSpec          `json:"spec"`
	Epochs []HierChaosEpoch       `json:"epochs"`
	Cores  []HierChaosCoreSummary `json:"cores"`
	// L2 is the whole-campaign contention ledger.
	L2 hier.L2Stats `json:"l2"`
}

// RunHierChaos executes one multicore fault-injection campaign. Per
// the single-core semantics: a voltage transition rebuilds that core's
// rig against its die's nested map at the new point (contents do not
// survive a DVFS transition), relinks BBR and reseeds its injectors;
// yield failures force the core's controller up. The shared L2 is on
// its own rail and persists across epochs and core transitions.
func RunHierChaos(ctx context.Context, spec HierChaosSpec) (*HierChaosResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	h, _, err := newHierarchy(len(spec.Cores), spec.L2MV, spec.Banks, spec.MSHRs)
	if err != nil {
		return nil, err
	}
	dies := make([]*campaign, len(spec.Cores))
	for i, cs := range spec.Cores {
		c, cerr := newCampaign(cs, fmt.Sprintf("core %d die %d", i, cs.DieSeed),
			int64(i)*1_000_003, // decorrelate per-core injector streams
			spec.Inject, spec.Backoff,
			func(op dvfs.OperatingPoint, rig hier.RigBuilder) error { return h.SetRig(i, op, spec.CPU, rig) })
		if cerr != nil {
			return nil, cerr
		}
		// An uncoverable die at the top rung aborts the campaign.
		if err := c.build(); err != nil {
			return nil, err
		}
		dies[i] = c
	}

	res := &HierChaosResult{Spec: spec}
	var prevL2 hier.L2Stats
	for e := 0; e < spec.Epochs; e++ {
		results, rerr := h.RunEpoch(ctx, spec.EpochInstructions)
		if rerr != nil {
			return nil, rerr
		}
		l2now := h.L2Stats()
		hep := HierChaosEpoch{Index: e, L2: l2now.Sub(prevL2)}
		prevL2 = l2now
		for i, c := range dies {
			ep, oerr := c.observe(results[i], e < spec.Epochs-1)
			if oerr != nil {
				return nil, oerr
			}
			hep.Cores = append(hep.Cores, HierChaosCoreEpoch{
				Core: i, MV: ep.Op.VoltageMV, Result: ep.Result, Faults: ep.Faults, Rate: ep.Rate, Action: ep.Action,
			})
		}
		res.Epochs = append(res.Epochs, hep)
	}
	for i, c := range dies {
		sum := c.summary()
		sum.Core, sum.Benchmark = i, spec.Cores[i].Benchmark
		res.Cores = append(res.Cores, sum)
	}
	res.L2 = h.L2Stats()
	return res, nil
}
