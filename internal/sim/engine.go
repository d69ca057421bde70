package sim

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/workload"
)

// Engine schedules the experiment drivers onto a bounded worker pool
// with a seed-keyed run memo. One Engine per process invocation is the
// intended shape: every figure, sweep and ad-hoc run scheduled through
// the same Engine shares the memo, so a RunSpec executed once — a
// defect-free baseline shared by Figures 10–12, or the same cell
// requested by two reports — is never simulated twice.
//
// Determinism contract: every job the Engine schedules derives its
// randomness from seeds carried in the job's spec, never from
// scheduling, so results are byte-identical at any worker count
// (including 1) for the same master seed.
type Engine struct {
	pool *engine.Pool
	runs *engine.Memo[RunSpec, cpu.Result]
	// runFn is the single-run entry point. Tests substitute it to
	// inject failures and observe cancellation; production code always
	// goes through RunContext.
	runFn func(context.Context, RunSpec) (cpu.Result, error)
	// jobTimeout bounds each simulation run; zero means unbounded.
	jobTimeout time.Duration
}

// NewEngine returns an engine with the given worker bound; workers <= 0
// selects GOMAXPROCS (the `-workers` flag default in every command).
// The run memo is unbounded — right for a one-shot CLI sweep whose key
// population is the grid itself; a long-lived process should bound it
// with NewEngineBounded.
func NewEngine(workers int) *Engine {
	return NewEngineBounded(workers, 0)
}

// NewEngineBounded is NewEngine with a cap on the run memo: at most
// maxRuns completed simulations stay cached, evicted least recently
// used (maxRuns <= 0 means unbounded). Singleflight coalescing is
// unaffected — an in-flight run is pinned until it completes — so a
// bounded engine trades only recall, never determinism or the
// one-computation-per-spec contract. This is what a serving layer
// wants: each distinct RunSpec otherwise leaks one cpu.Result for the
// life of the process.
func NewEngineBounded(workers, maxRuns int) *Engine {
	if maxRuns < 0 {
		maxRuns = 0
	}
	return &Engine{
		pool:  engine.New(workers),
		runs:  engine.NewMemoConfig(engine.MemoConfig[RunSpec, cpu.Result]{MaxEntries: maxRuns}),
		runFn: RunContext,
	}
}

// Workers returns the engine's worker bound.
func (e *Engine) Workers() int { return e.pool.Workers() }

// Pool exposes the engine's worker pool so commands can schedule their
// own job grids (engine.Map) alongside the memoized drivers. The
// engine's no-nesting rule applies: a job running on this pool must not
// start another Map on it.
func (e *Engine) Pool() *engine.Pool { return e.pool }

// MemoStats reports the run memo's hit and miss counts — hits are
// simulations that were requested again and served from cache.
func (e *Engine) MemoStats() (hits, misses int64) {
	return e.runs.Hits(), e.runs.Misses()
}

// MemoEvictions reports completed runs dropped by a bounded engine's
// LRU cap (always 0 on an unbounded engine).
func (e *Engine) MemoEvictions() int64 { return e.runs.Evictions() }

// SetJobTimeout bounds every simulation run scheduled through the
// engine (the `-timeout` flag in the commands): a run exceeding d fails
// with an error wrapping context.DeadlineExceeded instead of hanging
// the sweep it belongs to. d <= 0 removes the bound. Set before
// scheduling work; the engine does not synchronize this field against
// in-flight runs.
func (e *Engine) SetJobTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e.jobTimeout = d
}

// Run executes one simulation through the engine's memo: a spec already
// executed on this engine returns its cached result without simulating.
func (e *Engine) Run(ctx context.Context, spec RunSpec) (cpu.Result, error) {
	return e.runs.Do(ctx, spec, func() (cpu.Result, error) {
		rctx := ctx
		if e.jobTimeout > 0 {
			var cancel context.CancelFunc
			rctx, cancel = context.WithTimeout(ctx, e.jobTimeout)
			defer cancel()
		}
		r, err := e.runFn(rctx, spec)
		if err != nil && e.jobTimeout > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			err = fmt.Errorf("sim: %s/%s at %d mV exceeded the %v run timeout: %w",
				spec.Scheme, spec.Benchmark, spec.Op.VoltageMV, e.jobTimeout, err)
		}
		return r, err
	})
}

// validateEvalInputs rejects malformed evaluation requests up front —
// unknown scheme names, unknown or duplicate benchmarks — so a bad
// argument surfaces as one clear top-level error instead of failing
// deep inside RunContext on the first fault map of some cell.
func validateEvalInputs(ss []Scheme, benchmarks []string) error {
	for _, s := range ss {
		if err := CheckScheme(s, false); err != nil {
			return err
		}
	}
	seen := make(map[string]bool, len(benchmarks))
	for _, b := range benchmarks {
		if _, err := workload.ByName(b); err != nil {
			return err
		}
		if seen[b] {
			return fmt.Errorf("sim: duplicate benchmark %q", b)
		}
		seen[b] = true
	}
	return nil
}
