// Event-driven multicore experiments: N cores (each a full L1 scheme
// rig) sharing one banked L2 through the internal/hier components, with
// per-core voltage domains. The single construction path with the
// trace-driven model (buildRig / buildChaosRig) plus the calibration
// regression test (hier_test.go) keeps the two models from silently
// diverging.

package sim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/bbr"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/hier"
	"repro/internal/inject"
	"repro/internal/program"
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

// l2Params assembles the hier.L2Params for a spec.
func hierL2Params(l2op dvfs.OperatingPoint, banks, mshrs int) hier.L2Params {
	p := hier.DefaultL2Params(l2op)
	if banks > 0 {
		p.Banks = banks
	}
	if mshrs > 0 {
		p.MSHRs = mshrs
	}
	return p
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
	l2op, err := l2Point(spec.L2MV)
	if err != nil {
		return nil, err
	}
	h, err := hier.New(hier.Config{Cores: len(spec.Cores), L2: hierL2Params(l2op, spec.Banks, spec.MSHRs)})
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
	switch {
	case len(s.Cores) == 0:
		return errors.New("sim: hierarchy campaign needs at least one core")
	case s.Epochs <= 0:
		return fmt.Errorf("sim: hierarchy campaign needs positive epochs, got %d", s.Epochs)
	case s.EpochInstructions == 0:
		return errors.New("sim: zero epoch instructions")
	}
	if err := s.Inject.Validate(); err != nil {
		return err
	}
	if err := s.Backoff.Validate(); err != nil {
		return err
	}
	if _, err := l2Point(s.L2MV); err != nil {
		return err
	}
	for i, cs := range s.Cores {
		if _, err := dvfs.PointAt(cs.StartMV); err != nil {
			return fmt.Errorf("sim: core %d: %w", i, err)
		}
		if _, err := workload.ByName(cs.Benchmark); err != nil {
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

// hierChaosCore is one core's live campaign state.
type hierChaosCore struct {
	prof             workload.Profile
	prog             *program.Program
	seriesI, seriesD *faultmap.Series
	backoff          *dvfs.Backoff
	salt             int64
	seg              int
	ic               *bbr.ICache
	dc               *ffw.Cache
	prev             inject.Stats
	totals           inject.Stats
	epochs           []ChaosEpoch // op/result pairs for residency folding
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
	l2op, err := l2Point(spec.L2MV)
	if err != nil {
		return nil, err
	}
	h, err := hier.New(hier.Config{Cores: len(spec.Cores), L2: hierL2Params(l2op, spec.Banks, spec.MSHRs)})
	if err != nil {
		return nil, err
	}

	// rebuild equips core i for its controller's current point
	// (uncoverable at the top rung aborts the campaign — a dead die).
	states := make([]*hierChaosCore, len(spec.Cores))
	rebuild := func(i int) error {
		st, cs := states[i], spec.Cores[i]
		return buildForcingUp(st.backoff, fmt.Sprintf("core %d die %d", i, cs.DieSeed), func(op dvfs.OperatingPoint) error {
			err := h.SetRig(i, op, spec.CPU, func(next *core.NextLevel) (core.InstrCache, core.DataCache, *workload.Stream, error) {
				ic, dc, stream, berr := buildChaosRig(spec.Inject, cs.WorkSeed, st.salt, st.prof, st.prog, op, st.seriesI, st.seriesD, st.seg, next)
				if berr != nil {
					return nil, nil, nil, berr
				}
				st.ic, st.dc = ic, dc
				return ic, dc, stream, nil
			})
			if err == nil {
				st.seg++
				st.prev = inject.Stats{}
			}
			return err
		})
	}
	for i, cs := range spec.Cores {
		prof, perr := workload.ByName(cs.Benchmark)
		if perr != nil {
			return nil, perr
		}
		backoff, berr := dvfs.NewBackoff(spec.Backoff, cs.StartMV)
		if berr != nil {
			return nil, berr
		}
		prog, terr := bbrProgram(prof, cs.WorkSeed)
		if terr != nil {
			return nil, terr
		}
		st := &hierChaosCore{
			prof: prof, prog: prog, backoff: backoff,
			salt: int64(i) * 1_000_003, // decorrelate per-core injector streams
		}
		// Same die-seed salts as SweepDie/RunChaos, so one core's die is
		// comparable to a single-core campaign on the same seed.
		st.seriesI, st.seriesD = dieSeries(cs.DieSeed)
		states[i] = st
		if err := rebuild(i); err != nil {
			return nil, err
		}
	}

	res := &HierChaosResult{Spec: spec}
	var prevL2 hier.L2Stats
	for e := 0; e < spec.Epochs; e++ {
		results, rerr := h.RunEpoch(ctx, spec.EpochInstructions)
		if rerr != nil {
			return nil, rerr
		}
		l2now := h.L2Stats()
		ep := HierChaosEpoch{Index: e, L2: l2now.Sub(prevL2)}
		prevL2 = l2now
		for i, st := range states {
			op := st.backoff.Current()
			r := results[i]
			cum := st.ic.FaultStats()
			cum.Add(st.dc.FaultStats())
			delta := cum.Sub(st.prev)
			st.prev = cum
			rate := 1000 * float64(delta.Detected) / float64(r.Instructions)
			action := st.backoff.Observe(rate)
			ep.Cores = append(ep.Cores, HierChaosCoreEpoch{
				Core: i, MV: op.VoltageMV, Result: r, Faults: delta, Rate: rate, Action: action,
			})
			st.totals.Add(delta)
			st.epochs = append(st.epochs, ChaosEpoch{Op: op, Result: r})
			if action != dvfs.Hold && e < spec.Epochs-1 {
				if err := rebuild(i); err != nil {
					return nil, err
				}
			}
		}
		res.Epochs = append(res.Epochs, ep)
	}
	for i, st := range states {
		res.Cores = append(res.Cores, HierChaosCoreSummary{
			Core: i, Benchmark: spec.Cores[i].Benchmark,
			FinalMV: st.backoff.Current().VoltageMV,
			StepUps: st.backoff.StepUps(), StepDowns: st.backoff.StepDowns(),
			Totals: st.totals, Residency: residency(st.epochs),
		})
	}
	res.L2 = h.L2Stats()
	return res, nil
}
