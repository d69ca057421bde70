package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/engine"
)

// Options configures one distributed grid run.
type Options struct {
	// Shards is the number of worker subprocesses. <= 0 executes the
	// grid in-process on an engine.Pool (the same code path the
	// supervisor degrades to when workers cannot be spawned); 1 runs a
	// single supervised worker.
	Shards int
	// Checkpoint, when non-empty, is the durable checkpoint file:
	// completed rows are flushed to it (atomic write-rename) as they
	// finish and once more before Run returns.
	Checkpoint string
	// Resume loads Checkpoint before running and only executes the rows
	// it does not already contain. A checkpoint whose grid hash does
	// not match the current grid is rejected with an error. A missing
	// checkpoint file starts fresh.
	Resume bool
	// Setup is handed to the kind's SetupFunc in every worker process
	// (and in local mode), and is part of the grid hash.
	Setup json.RawMessage
	// LocalWorkers bounds in-process execution (Shards <= 1 and the
	// degradation path); 0 selects GOMAXPROCS.
	LocalWorkers int
	// FlushEvery flushes the checkpoint after this many newly completed
	// rows; 0 selects 1 (every row — maximum durability).
	FlushEvery int
	// HeartbeatInterval is the worker ping period; 0 selects 500ms.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout kills a worker silent for this long; 0 selects
	// 10s. It bounds silence, not job latency: workers heartbeat from a
	// side goroutine while computing.
	HeartbeatTimeout time.Duration
	// MaxRestarts bounds restarts per worker slot; 0 selects 3.
	// Negative means no restarts.
	MaxRestarts int
	// BackoffBase and BackoffMax shape the exponential restart backoff
	// (base<<gen, capped); 0 selects 250ms and 5s.
	BackoffBase, BackoffMax time.Duration
	// DrainTimeout bounds how long cancellation waits for in-flight
	// rows before killing workers; 0 selects 20s.
	DrainTimeout time.Duration
	// Env appends to the workers' environment (tests use it to arm the
	// crash/wedge hooks).
	Env []string
	// Stderr receives supervision warnings; nil selects os.Stderr.
	Stderr io.Writer
}

// withDefaults fills zero fields.
func (o Options) withDefaults() Options {
	if o.FlushEvery <= 0 {
		o.FlushEvery = 1
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 500 * time.Millisecond
	}
	if o.HeartbeatTimeout <= 0 {
		o.HeartbeatTimeout = 10 * time.Second
	}
	if o.MaxRestarts == 0 {
		o.MaxRestarts = 3
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 250 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.DrainTimeout <= 0 {
		o.DrainTimeout = 20 * time.Second
	}
	if o.Stderr == nil {
		o.Stderr = os.Stderr
	}
	return o
}

// WorkerError is a job failure reported by a worker process, carrying
// the job's grid index.
type WorkerError struct {
	Index int
	Msg   string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("dist: job %d failed: %s", e.Index, e.Msg)
}

// ErrStaleCheckpoint reports a -resume checkpoint that does not match
// the current grid.
var ErrStaleCheckpoint = errors.New("dist: checkpoint is stale")

// Run executes the job grid and returns the per-index results with
// engine.MapPartialNotify's semantics: done[i] marks the rows that completed, and on
// cancellation or job failure the completed rows are still returned
// (and checkpointed) alongside the error. Results merge by index, so
// for deterministic runners the returned rows are byte-identical at
// any shard count — 0 (in-process), 1 or N.
func Run(ctx context.Context, kind string, payloads []json.RawMessage, opts Options) ([]json.RawMessage, []bool, error) {
	opts = opts.withDefaults()
	n := len(payloads)
	results := make([]json.RawMessage, n)
	done := make([]bool, n)
	hash := GridHash(kind, opts.Setup, payloads)

	var ck *ckWriter
	if opts.Checkpoint != "" {
		ck = &ckWriter{
			path:  opts.Checkpoint,
			every: opts.FlushEvery,
			c:     &Checkpoint{Kind: kind, GridHash: hash, N: n},
		}
		if opts.Resume {
			prev, err := LoadCheckpoint(opts.Checkpoint)
			switch {
			case errors.Is(err, os.ErrNotExist):
				fmt.Fprintf(opts.Stderr, "dist: no checkpoint at %s; starting fresh\n", opts.Checkpoint)
			case err != nil:
				return nil, nil, err
			case prev.Kind != kind || prev.N != n || prev.GridHash != hash:
				return nil, nil, fmt.Errorf("%w: %s was written for a different grid (kind %q, %d rows) — "+
					"the flags or seeds changed since it was written; delete it or rerun without -resume",
					ErrStaleCheckpoint, opts.Checkpoint, prev.Kind, prev.N)
			default:
				for _, row := range prev.Rows {
					results[row.Index] = row.Result
					done[row.Index] = true
				}
				ck.mu.Lock()
				ck.c.Rows = prev.Rows
				ck.mu.Unlock()
				fmt.Fprintf(opts.Stderr, "dist: resumed %d/%d rows from %s\n", len(prev.Rows), n, opts.Checkpoint)
			}
		}
	}

	pending := make([]int, 0, n)
	for i := range done {
		if !done[i] {
			pending = append(pending, i)
		}
	}

	var runErr error
	if len(pending) > 0 {
		if opts.Shards >= 1 {
			runErr = runSharded(ctx, kind, payloads, pending, results, done, ck, opts)
		} else {
			runErr = runLocal(ctx, kind, payloads, pending, results, done, ck, opts)
		}
	}

	if ck != nil {
		if err := ck.finalFlush(); err != nil && runErr == nil {
			runErr = err
		}
	}
	return results, done, runErr
}

// ckWriter accumulates completed rows and flushes them to the
// checkpoint file every `every` completions plus once at the end. Rows
// arrive from concurrent job goroutines; flushes rewrite the whole file
// atomically, so the on-disk checkpoint is always internally
// consistent.
type ckWriter struct {
	path  string
	every int

	mu         sync.Mutex
	c          *Checkpoint // guarded by mu
	sinceFlush int         // guarded by mu
	err        error       // guarded by mu; first flush failure, surfaced at the end
}

// add records one completed row and flushes if due.
func (w *ckWriter) add(index int, result json.RawMessage) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.c.Rows = append(w.c.Rows, CheckpointRow{Index: index, Result: result})
	w.sinceFlush++
	if w.sinceFlush >= w.every {
		w.flushLocked()
	}
}

// flushLocked writes the file; the first error is retained and later
// attempts are still made (a transient ENOSPC should not wedge the run).
func (w *ckWriter) flushLocked() {
	w.sinceFlush = 0
	if err := SaveCheckpoint(w.path, w.c); err != nil && w.err == nil {
		w.err = err
	}
}

// finalFlush writes the closing checkpoint and reports the first error
// any flush hit.
func (w *ckWriter) finalFlush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.flushLocked()
	return w.err
}

// runLocal executes the pending rows in-process on an engine.Pool —
// the Shards <= 1 mode and the degradation target when workers cannot
// be spawned. The kind's setup runs exactly as it would in a worker
// process, so both paths execute identical code per row.
func runLocal(ctx context.Context, kind string, payloads []json.RawMessage, pending []int,
	results []json.RawMessage, done []bool, ck *ckWriter, opts Options) error {

	setupFn, err := lookupKind(kind)
	if err != nil {
		return err
	}
	runner, err := setupFn(opts.Setup)
	if err != nil {
		return fmt.Errorf("dist: setup for kind %q: %w", kind, err)
	}
	pool := engine.New(opts.LocalWorkers)
	_, localDone, err := engine.MapPartialNotify(ctx, pool, len(pending),
		func(ctx context.Context, i int) (json.RawMessage, error) {
			res, err := runner(ctx, payloads[pending[i]])
			if err != nil {
				return nil, err
			}
			results[pending[i]] = res
			return res, nil
		},
		func(i int) {
			if ck != nil {
				ck.add(pending[i], results[pending[i]])
			}
		})
	for i, d := range localDone {
		if d {
			done[pending[i]] = true
		}
	}
	return err
}

// joinIndexOrder joins per-index job errors in ascending index order,
// mirroring engine.Map's deterministic aggregation.
func joinIndexOrder(errs map[int]error) error {
	if len(errs) == 0 {
		return nil
	}
	idx := make([]int, 0, len(errs))
	for i := range errs {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	ordered := make([]error, 0, len(idx))
	for _, i := range idx {
		ordered = append(ordered, errs[i])
	}
	return errors.Join(ordered...)
}
