// Package engine is the deterministic parallel run scheduler behind the
// experiment driver: a bounded worker pool whose jobs carry indices, so
// results merge by index — never by completion order — and the output of
// a sweep is byte-identical at any worker count, including one.
//
// The package deliberately owns nothing about simulations. It offers
// three guarantees the drivers in internal/sim build on:
//
//   - bounded parallelism: at most Workers jobs run at once, however
//     many are submitted;
//   - cancellation with full error aggregation: the first failing job
//     cancels the context handed to every other job, jobs not yet
//     started are skipped, and every error that did occur is returned
//     via errors.Join (a panicking job is contained and reported as a
//     *PanicError instead of taking the process down);
//   - memoization (see Memo): a computation keyed by a comparable value
//     executes once per key, concurrent requesters share the single
//     in-flight computation, and hit/miss counts are observable.
//
// Map calls must not be nested on the same Pool: an outer job that
// waits for inner jobs holds its worker slot while waiting, which can
// exhaust the pool and deadlock. Flatten the grid into one Map call
// instead (the drivers flatten scheme × operating point × benchmark).
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Pool is a bounded worker pool. The zero value is not usable; construct
// with New. A Pool may be shared by any number of sequential or
// concurrent Map calls — the bound applies across all of them.
type Pool struct {
	slots chan struct{}
}

// New returns a pool running at most workers jobs concurrently.
// workers <= 0 selects GOMAXPROCS, the default for every command.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{slots: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return cap(p.slots) }

// PanicError reports a panic recovered from a job. The job's panic value
// and stack are preserved; sibling jobs were cancelled.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: job panicked: %v\n%s", e.Value, e.Stack)
}

// Map executes fn(ctx, i) for every i in [0, n) on the pool and returns
// the results in index order. The context passed to each job is
// cancelled as soon as any job returns an error or panics; jobs that
// have not started by then are skipped, and the error returned joins
// every job error in index order. When the caller's ctx is cancelled
// with no job having failed, Map returns ctx's error.
//
// Determinism contract: given jobs whose results depend only on their
// index (never on scheduling, shared mutable state, or completion
// order), Map's result slice is identical at any worker count.
func Map[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results, _, errs := runMap(ctx, p, n, fn, nil)
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// MapPartialNotify is Map for interruptible sweeps. Instead of
// discarding everything on failure or cancellation, it always returns
// the per-index results alongside done flags marking the jobs that
// completed. On a clean run err is nil and every flag is true. When
// the caller's ctx is cancelled (e.g. SIGINT) err is ctx's error; when
// a job fails, err joins the job errors — in both cases the completed
// results are still valid and callers can flush them before exiting.
// Cancellation echoes from sibling jobs (errors that merely wrap
// context.Canceled) are dropped from err: the failure that stopped the
// run is already recorded.
//
// notify is a completion hook for durable progress (checkpoint
// flushing in internal/dist): notify(i), when non-nil, is called from
// the job's goroutine strictly after results[i] and done[i] are
// assigned, and never for a job that failed or panicked — so a row
// observed by notify is exactly a row that will read back done.
// notify runs concurrently from different jobs; the callback
// synchronizes itself. A panic inside notify is contained like a job
// panic (the run is cancelled and a *PanicError surfaced), but the
// row's done flag remains true: the result itself was valid.
func MapPartialNotify[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error), notify func(i int)) (results []T, done []bool, err error) {
	results, done, errs := runMap(ctx, p, n, fn, notify)
	kept := make([]error, 0, len(errs))
	for _, e := range errs {
		if e == nil || errors.Is(e, context.Canceled) {
			continue
		}
		kept = append(kept, e)
	}
	if err = errors.Join(kept...); err == nil {
		err = ctx.Err()
	}
	return results, done, err
}

// runMap is the shared scheduling core of Map and MapPartialNotify.
func runMap[T any](ctx context.Context, p *Pool, n int, fn func(ctx context.Context, i int) (T, error), notify func(i int)) (results []T, done []bool, errs []error) {
	results = make([]T, n)
	done = make([]bool, n)
	errs = make([]error, n)
	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case <-jobCtx.Done():
			// A job failed (or the caller cancelled): skip everything
			// not yet started. Skipped jobs contribute no error of
			// their own; the failure that stopped the run is already
			// recorded.
		case p.slots <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-p.slots }()
				// The dispatch select chooses randomly when a free slot
				// and the cancellation are both ready, so a job can be
				// dispatched after a sibling already failed. A failing
				// job cancels before it releases its slot, so by the
				// time this goroutine holds that slot the cancellation
				// is visible: treat the job as skipped — never run it,
				// never mark it done — exactly like the dispatch-loop
				// skip. Without this check a panic mid-grid raced the
				// partial flush: later rows could still complete and be
				// flushed in some runs but not others.
				if jobCtx.Err() != nil {
					return
				}
				v, err := runJob(jobCtx, i, fn)
				if err != nil {
					// A job that failed — or panicked; runJob contains
					// the panic as a *PanicError — never marks done, so
					// a partial flush can never observe a row whose
					// result slot was abandoned mid-write.
					errs[i] = err
					cancel()
					return
				}
				results[i] = v
				done[i] = true
				if notify != nil {
					defer func() {
						if r := recover(); r != nil {
							errs[i] = &PanicError{Value: r, Stack: debug.Stack()}
							cancel()
						}
					}()
					notify(i)
				}
			}(i)
		}
	}
	wg.Wait()
	return results, done, errs
}

// runJob executes one job with panic containment. A panic in fn is
// returned as a *PanicError, so the caller decides result visibility on
// the ordinary error path — the recover can never race the results/done
// assignment, which happens strictly after runJob returns.
func runJob[T any](jobCtx context.Context, i int, fn func(ctx context.Context, i int) (T, error)) (v T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			v, err = zero, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(jobCtx, i)
}
