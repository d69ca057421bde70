// The job-kind table. Each distributed job kind is declared once, as a
// Job value naming its spec and result types, its run function and the
// scope of its -timeout bound; every surface reads that one row. dist
// workers register every kind through one generic runner, lvserve serves
// each kind through one generic handler, and the grid commands run each
// kind through Job.Grid. Each kind's spec and result types carry only
// exported fields of exact-round-trip JSON types (float64, integers,
// strings), so a result that crosses the process boundary formats
// byte-identically to one computed in-process.

package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/energy"
	"repro/internal/stats"
	"repro/internal/workload"
)

// The distributed job kinds every command binary registers.
const (
	// KindRow is lvsim's unit: one (scheme, benchmark) Monte Carlo cell.
	KindRow = "sim.row"
	// KindChaos is lvchaos's unit: one fault-injection campaign.
	KindChaos = "sim.chaos"
	// KindDie is lvdie's unit: one die's full DVFS-ladder sweep.
	KindDie = "sim.die"
	// KindHier is lvsim -hierarchy's unit: one event-driven multicore
	// run (one Monte Carlo die set).
	KindHier = "sim.hier"
	// KindHierChaos is lvchaos -hierarchy's unit: one multicore
	// fault-injection campaign.
	KindHierChaos = "sim.hierchaos"
)

// Spec is a job kind's spec type: it rejects a malformed spec before
// the spec costs a worker, a queue slot or a grid row.
type Spec interface {
	Validate() error
}

// Job is one row of the job-kind table: a kind whose specs are S and
// whose results are R.
type Job[S Spec, R any] struct {
	name string
	// perRun scopes DistSetup.TimeoutNS to each simulation run
	// (Engine.SetJobTimeout); otherwise it bounds the whole job.
	perRun bool
	run    func(ctx context.Context, e *Engine, spec S) (R, error)
}

// The job-kind table. Row and die sweeps are bounded per simulation
// run; campaigns and hierarchy runs are bounded per job.
var (
	RowJob = Job[RowSpec, RowResult]{name: KindRow, perRun: true,
		run: func(ctx context.Context, e *Engine, s RowSpec) (RowResult, error) { return e.EvalRow(ctx, s) }}
	DieJob = Job[DieSpec, *DieSweep]{name: KindDie, perRun: true,
		run: func(ctx context.Context, e *Engine, s DieSpec) (*DieSweep, error) {
			return e.SweepDie(ctx, s.Scheme, s.Benchmark, s.DieSeed, s.WorkSeed, s.Instructions, s.CPU)
		}}
	ChaosJob = Job[ChaosSpec, *ChaosResult]{name: KindChaos,
		run: func(ctx context.Context, e *Engine, s ChaosSpec) (*ChaosResult, error) { return e.RunChaos(ctx, s) }}
	HierJob = Job[HierSpec, *HierResult]{name: KindHier,
		run: func(ctx context.Context, _ *Engine, s HierSpec) (*HierResult, error) {
			res, err := RunHierarchy(ctx, s)
			if errors.Is(err, ErrYield) {
				// An uncoverable die set is a Monte Carlo datum, as in
				// EvalRow's yield accounting, not a failed job.
				return &HierResult{YieldFail: true}, nil
			}
			return res, err
		}}
	HierChaosJob = Job[HierChaosSpec, *HierChaosResult]{name: KindHierChaos,
		run: func(ctx context.Context, _ *Engine, s HierChaosSpec) (*HierChaosResult, error) {
			return RunHierChaos(ctx, s)
		}}
)

func init() {
	RowJob.register()
	DieJob.register()
	ChaosJob.register()
	HierJob.register()
	HierChaosJob.register()
}

// On binds the kind's run function to an engine, for callers that run
// one spec at a time (lvserve). Those callers bound time themselves.
func (j Job[S, R]) On(e *Engine) func(context.Context, S) (R, error) {
	return func(ctx context.Context, spec S) (R, error) { return j.run(ctx, e, spec) }
}

// register installs the kind with internal/dist: one engine per worker
// process, built from the grid's DistSetup, with the -timeout bound
// applied at the kind's scope.
func (j Job[S, R]) register() {
	dist.Register(j.name, func(setup json.RawMessage) (dist.Runner, error) {
		ds, err := parseDistSetup(setup)
		if err != nil {
			return nil, err
		}
		eng := NewEngine(ds.Workers)
		if j.perRun {
			eng.SetJobTimeout(time.Duration(ds.TimeoutNS))
		}
		return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
			var spec S
			if err := json.Unmarshal(payload, &spec); err != nil {
				return nil, fmt.Errorf("sim: %s payload: %w", j.name, err)
			}
			if !j.perRun && ds.TimeoutNS > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(ds.TimeoutNS))
				defer cancel()
			}
			res, err := j.run(ctx, eng, spec)
			if err != nil {
				return nil, err
			}
			return json.Marshal(res)
		}, nil
	})
}

// Grid runs specs as one grid of the kind over dist.Run. Every spec is
// validated before anything runs. A grid that cannot start (a rejected
// spec, a stale checkpoint) returns a nil done slice. Otherwise
// results[i] holds row i's result wherever done[i] is set, with
// dist.Run's partial-result contract: on cancellation or a failed job
// the completed rows come back alongside the error.
func (j Job[S, R]) Grid(ctx context.Context, specs []S, opts dist.Options) (results []R, done []bool, err error) {
	payloads := make([]json.RawMessage, len(specs))
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, nil, fmt.Errorf("%s job %d: %w", j.name, i, err)
		}
		if payloads[i], err = json.Marshal(s); err != nil {
			return nil, nil, err
		}
	}
	raw, done, err := dist.Run(ctx, j.name, payloads, opts)
	results = make([]R, len(raw))
	for i := range raw {
		if !done[i] {
			continue
		}
		if uerr := json.Unmarshal(raw[i], &results[i]); uerr != nil {
			return nil, nil, fmt.Errorf("%s job %d result: %w", j.name, i, uerr)
		}
	}
	return results, done, err
}

// DistSetup is the per-process configuration shipped to every worker
// (and applied identically in-process): it is part of the grid hash, so
// a checkpoint is only resumable under the same setup.
type DistSetup struct {
	// Workers bounds each worker process's engine pool; 0 selects
	// GOMAXPROCS. Row and chaos jobs are internally sequential; die
	// sweeps fan their operating points out on this pool.
	Workers int `json:"workers,omitempty"`
	// TimeoutNS bounds a unit of work at the kind's scope: per
	// simulation run for rows and die sweeps (Engine.SetJobTimeout), per
	// job for campaigns and hierarchy runs.
	TimeoutNS int64 `json:"timeout_ns,omitempty"`
	// Profiles holds custom workload profiles (workload.FromJSON format)
	// to register before running jobs — how lvsim's -profile reaches
	// worker processes, which never see the original flag.
	Profiles []json.RawMessage `json:"profiles,omitempty"`
}

// parseDistSetup decodes the per-process setup and registers its custom
// workload profiles (tolerating ones the host process already
// registered, as in-process execution after a -profile flag has).
func parseDistSetup(setup json.RawMessage) (DistSetup, error) {
	var ds DistSetup
	if len(setup) > 0 {
		if err := json.Unmarshal(setup, &ds); err != nil {
			return DistSetup{}, fmt.Errorf("sim: dist setup: %w", err)
		}
	}
	for _, raw := range ds.Profiles {
		p, err := workload.FromJSON(raw)
		if err != nil {
			return DistSetup{}, err
		}
		if _, err := workload.ByName(p.Name); err == nil {
			continue // already registered in this process
		}
		if err := workload.Register(p); err != nil {
			return DistSetup{}, err
		}
	}
	return ds, nil
}

// RowSpec is one lvsim grid cell: a scheme × benchmark Monte Carlo
// evaluation at one operating point.
type RowSpec struct {
	Scheme       Scheme     `json:"scheme"`
	Benchmark    string     `json:"benchmark"`
	MV           int        `json:"mv"`
	Maps         int        `json:"maps"`
	Seed         int64      `json:"seed"`
	Instructions uint64     `json:"instructions"`
	CPU          cpu.Config `json:"cpu"`
}

// Validate rejects a malformed cell: unknown scheme or benchmark, bad
// operating point, no fault maps or no work.
func (s RowSpec) Validate() error {
	if err := CheckScheme(s.Scheme, false); err != nil {
		return err
	}
	if _, err := workload.ByName(s.Benchmark); err != nil {
		return err
	}
	if _, err := dvfs.PointAt(s.MV); err != nil {
		return err
	}
	if s.Instructions == 0 {
		return errors.New("sim: zero instructions")
	}
	if s.Maps <= 0 {
		return fmt.Errorf("sim: need at least one fault map, got %d", s.Maps)
	}
	return nil
}

// RowResult is the cell's Monte Carlo aggregate. Samples 0 means every
// fault map failed yield (lvsim prints dashes).
type RowResult struct {
	Samples            int     `json:"samples"`
	YieldFails         int     `json:"yield_fails"`
	MeanCPI            float64 `json:"mean_cpi"`
	MeanRuntimeMS      float64 `json:"mean_runtime_ms"`
	MeanL2PerKiloInstr float64 `json:"mean_l2k"`
	MeanNormEPI        float64 `json:"mean_norm_epi"`
}

// EvalRow runs one lvsim cell: the conventional 760 mV baseline (shared
// across this engine's rows via the run memo), then Maps fault maps at
// the cell's operating point, aggregating the survivors. This is the
// computation lvsim's table is made of, shared verbatim by its
// in-process and distributed paths.
func (e *Engine) EvalRow(ctx context.Context, spec RowSpec) (RowResult, error) {
	op, err := dvfs.PointAt(spec.MV)
	if err != nil {
		return RowResult{}, err
	}
	baseline, err := e.Run(ctx, RunSpec{
		Scheme: Conventional, Benchmark: spec.Benchmark, Op: dvfs.Nominal(),
		WorkSeed: spec.Seed, Instructions: spec.Instructions, CPU: spec.CPU,
	})
	if err != nil {
		return RowResult{}, err
	}
	model := energy.DefaultModel()
	var cpis, runtimes, l2ks, epis []float64
	yieldFails := 0
	for m := 0; m < spec.Maps; m++ {
		if err := ctx.Err(); err != nil {
			return RowResult{}, err
		}
		r, err := e.Run(ctx, RunSpec{
			Scheme: spec.Scheme, Benchmark: spec.Benchmark, Op: op,
			MapSeed: spec.Seed + int64(m), WorkSeed: spec.Seed,
			Instructions: spec.Instructions, CPU: spec.CPU,
		})
		if errors.Is(err, ErrYield) {
			yieldFails++
			continue
		}
		if err != nil {
			return RowResult{}, err
		}
		norm, err := model.Normalized(r, op, L1StaticFactor(spec.Scheme), baseline)
		if err != nil {
			return RowResult{}, err
		}
		cpis = append(cpis, r.CPI())
		runtimes = append(runtimes, 1e3*r.RuntimeSeconds(op.FreqMHz))
		l2ks = append(l2ks, r.L2PerKiloInstr())
		epis = append(epis, norm)
	}
	res := RowResult{Samples: len(cpis), YieldFails: yieldFails}
	if len(cpis) > 0 {
		res.MeanCPI = stats.Mean(cpis)
		res.MeanRuntimeMS = stats.Mean(runtimes)
		res.MeanL2PerKiloInstr = stats.Mean(l2ks)
		res.MeanNormEPI = stats.Mean(epis)
	}
	return res, nil
}

// DieSpec is one lvdie unit: a die identity plus the sweep parameters.
type DieSpec struct {
	Scheme       Scheme     `json:"scheme"`
	Benchmark    string     `json:"benchmark"`
	DieSeed      int64      `json:"die_seed"`
	WorkSeed     int64      `json:"work_seed"`
	Instructions uint64     `json:"instructions"`
	CPU          cpu.Config `json:"cpu"`
}

// Validate rejects a malformed die sweep, including a scheme die sweeps
// do not support.
func (s DieSpec) Validate() error {
	if err := CheckScheme(s.Scheme, true); err != nil {
		return err
	}
	if _, err := workload.ByName(s.Benchmark); err != nil {
		return err
	}
	if s.Instructions == 0 {
		return errors.New("sim: zero instructions")
	}
	return nil
}
