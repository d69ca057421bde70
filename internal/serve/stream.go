// The /v1/sweep endpoint: a grid of eval cells streamed back as NDJSON,
// one row per line in grid-index order, closed by a terminator line.
//
// Streaming and determinism pull in opposite directions — rows finish
// in scheduling order, bodies must not depend on it — so the flusher
// releases rows in index order as the completed prefix extends: row i
// is written the moment rows 0..i have all finished. Every line is
// written whole under one lock (a torn row is never on the wire), and
// the terminator reports how many rows made it, so an interrupted
// stream is distinguishable from a complete one by its last line. The
// full body is accumulated alongside the client write and cached on
// success, which is what makes a thundering herd on one grid simulate
// exactly once and every herd member's body byte-identical.

package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/sim"
)

// ndjsonType is the sweep stream's content type.
const ndjsonType = "application/x-ndjson"

// SweepSpec is the /v1/sweep request: either an explicit cell list or
// a grid product of schemes × benchmarks × voltages (exactly one of
// the two forms). The grid expands scheme-major, then benchmark, then
// voltage — the expansion order is part of the wire contract, since
// row indices name cells.
type SweepSpec struct {
	Cells []sim.RowSpec `json:"cells,omitempty"`

	Schemes      []sim.Scheme `json:"schemes,omitempty"`
	Benchmarks   []string     `json:"benchmarks,omitempty"`
	MVs          []int        `json:"mvs,omitempty"`
	Maps         int          `json:"maps,omitempty"`
	Seed         int64        `json:"seed,omitempty"`
	Instructions uint64       `json:"instructions,omitempty"`
	CPU          *cpu.Config  `json:"cpu,omitempty"`
}

// expand resolves the spec into its cell list, bounded by maxCells
// (<= 0 means unbounded). The grid product is sized before anything is
// allocated — a small request body can name an enormous grid, and an
// over-cap sweep must cost a refusal, not the memory it asked for.
func (s SweepSpec) expand(maxCells int) ([]sim.RowSpec, error) {
	gridForm := len(s.Schemes) > 0 || len(s.Benchmarks) > 0 || len(s.MVs) > 0
	if len(s.Cells) > 0 {
		if gridForm || s.Maps != 0 || s.Seed != 0 || s.Instructions != 0 || s.CPU != nil {
			return nil, fmt.Errorf("serve: sweep takes cells or a grid, not both")
		}
		if maxCells > 0 && len(s.Cells) > maxCells {
			return nil, fmt.Errorf("serve: sweep of %d cells exceeds the %d-cell cap", len(s.Cells), maxCells)
		}
		return s.Cells, nil
	}
	if len(s.Schemes) == 0 || len(s.Benchmarks) == 0 || len(s.MVs) == 0 {
		return nil, fmt.Errorf("serve: sweep grid needs schemes, benchmarks and mvs (or explicit cells)")
	}
	// Each axis length is bounded by the request body cap (1 MiB), so
	// the int64 product cannot overflow (≤ ~2^60).
	product := int64(len(s.Schemes)) * int64(len(s.Benchmarks)) * int64(len(s.MVs))
	if maxCells > 0 && product > int64(maxCells) {
		return nil, fmt.Errorf("serve: sweep grid of %d cells exceeds the %d-cell cap", product, maxCells)
	}
	if err := dupAxisEntry(s); err != nil {
		return nil, err
	}
	maps := s.Maps
	if maps <= 0 {
		maps = 1
	}
	cfg := cpu.DefaultConfig()
	if s.CPU != nil {
		cfg = *s.CPU
	}
	cells := make([]sim.RowSpec, 0, product)
	for _, scheme := range s.Schemes {
		for _, bench := range s.Benchmarks {
			for _, mv := range s.MVs {
				cells = append(cells, sim.RowSpec{
					Scheme: scheme, Benchmark: bench, MV: mv,
					Maps: maps, Seed: s.Seed, Instructions: s.Instructions, CPU: cfg,
				})
			}
		}
	}
	return cells, nil
}

// dupAxisEntry rejects a grid axis that names the same value twice: a
// duplicate only ever inflates the grid with identical rows, so it is
// a spec mistake — and refusing it keeps the cell cap honest.
func dupAxisEntry(s SweepSpec) error {
	schemes := make(map[sim.Scheme]bool, len(s.Schemes))
	for _, v := range s.Schemes {
		if schemes[v] {
			return fmt.Errorf("serve: duplicate scheme %q in sweep grid", v)
		}
		schemes[v] = true
	}
	benches := make(map[string]bool, len(s.Benchmarks))
	for _, v := range s.Benchmarks {
		if benches[v] {
			return fmt.Errorf("serve: duplicate benchmark %q in sweep grid", v)
		}
		benches[v] = true
	}
	mvs := make(map[int]bool, len(s.MVs))
	for _, v := range s.MVs {
		if mvs[v] {
			return fmt.Errorf("serve: duplicate voltage %d in sweep grid", v)
		}
		mvs[v] = true
	}
	return nil
}

// validateCells front-checks every cell so a bad grid is a 400, not a
// row error half way through a stream.
func validateCells(cells []sim.RowSpec) error {
	if len(cells) == 0 {
		return fmt.Errorf("serve: empty sweep")
	}
	for i, c := range cells {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("cell %d: %w", i, err)
		}
	}
	return nil
}

// sweepRow is one NDJSON line of the stream.
type sweepRow struct {
	Index  int           `json:"index"`
	Result sim.RowResult `json:"result"`
}

// sweepEnd is the stream's terminator line: always the last line,
// always present, so a reader can tell a complete stream (complete ==
// true, rows == of) from one cut short by drain or cancellation.
type sweepEnd struct {
	Done     bool   `json:"done"`
	Rows     int    `json:"rows"`
	Of       int    `json:"of"`
	Complete bool   `json:"complete"`
	Error    string `json:"error,omitempty"`
}

// rowFlusher writes completed rows in index order. Jobs store their
// marshalled line, completion notifications advance the cursor; both
// happen under one mutex, so every line reaches the writer whole and
// exactly once, and a partial flush is always a prefix of the full
// stream.
//
// The cache buffer and the client are separate destinations on
// purpose: when the client's write fails, only the client detaches —
// the buffer keeps accumulating, so the body handed back for caching
// is always the complete stream, never a truncation shaped by one
// connection's death. (The request context usually cancels the run
// anyway and the error return keeps the body out of the cache; the
// split makes the cached-body invariant hold even when it does not.)
type rowFlusher struct {
	mu      sync.Mutex
	buf     *bytes.Buffer // cache accumulation; always written. guarded by mu
	client  io.Writer     // live stream; nil when absent or detached. guarded by mu
	flusher http.Flusher  // nil when the writer cannot stream. guarded by mu
	lines   [][]byte      // guarded by mu
	ready   []bool        // guarded by mu
	next    int           // first unwritten row. guarded by mu
	werr    error         // first client write error; detaches the client. guarded by mu
}

func newRowFlusher(buf *bytes.Buffer, client io.Writer, flusher http.Flusher, n int) *rowFlusher {
	return &rowFlusher{buf: buf, client: client, flusher: flusher, lines: make([][]byte, n), ready: make([]bool, n)}
}

// store records row i's marshalled line (called from the job, before
// the engine marks it done).
func (f *rowFlusher) store(i int, line []byte) {
	f.mu.Lock()
	f.lines[i] = line
	f.mu.Unlock()
}

// complete marks row i finished and writes every newly contiguous row.
func (f *rowFlusher) complete(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ready[i] = true
	wrote := false
	for f.next < len(f.ready) && f.ready[f.next] {
		f.writeLocked(f.lines[f.next])
		f.lines[f.next] = nil // the buffer keeps the bytes; drop the duplicate
		f.next++
		wrote = true
	}
	if wrote && f.flusher != nil {
		f.flusher.Flush()
	}
}

// writeLocked writes one whole line: to the buffer always, to the
// client until its first write error detaches it. caller holds mu.
func (f *rowFlusher) writeLocked(line []byte) {
	f.buf.Write(line) // bytes.Buffer.Write never fails
	if f.client == nil {
		return
	}
	if _, err := f.client.Write(line); err != nil {
		// The client is gone; detach it and keep accumulating. The
		// request context cancels independently via the connection.
		f.werr = err
		f.client = nil
		f.flusher = nil
	}
}

// finish writes the terminator line and reports rows written.
func (f *rowFlusher) finish(of int, runErr error) (rows int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	end := sweepEnd{Done: true, Rows: f.next, Of: of, Complete: f.next == of && runErr == nil}
	if runErr != nil {
		end.Error = runErr.Error()
	}
	line, err := json.Marshal(end)
	if err == nil {
		f.writeLocked(append(line, '\n'))
	}
	if f.flusher != nil {
		f.flusher.Flush()
	}
	return f.next
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	ctx, end, ok := s.begin(w, r)
	if !ok {
		return
	}
	defer end()
	spec := new(SweepSpec)
	hash, ok := s.readSpec(w, r, kindSweep, spec)
	if !ok {
		return
	}
	cells, err := spec.expand(s.cfg.MaxSweepCells)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_spec", err.Error(), false)
		return
	}
	if err := validateCells(cells); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad_spec", err.Error(), false)
		return
	}

	// streamed flips once this request starts writing rows itself; from
	// then on status and headers are on the wire and errors can only be
	// reported in the terminator line.
	streamed := false
	body, err := s.compute(ctx, kindSweep, hash, func(ctx context.Context) ([]byte, error) {
		streamed = true
		w.Header().Set("Content-Type", ndjsonType)
		flusher, _ := w.(http.Flusher)
		return s.streamSweep(ctx, w, flusher, cells)
	})
	if streamed {
		return // rows and terminator already written (cached on success)
	}
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	// Cache hit or coalesced wait: replay the identical body.
	w.Header().Set("Content-Type", ndjsonType)
	_, _ = w.Write(body) // the client owns its half of the connection
}

// streamSweep runs the grid, streaming rows to w as the completed
// prefix extends, and returns the accumulated body for the cache. On
// error (a failed cell, cancellation, drain) the terminator still
// closes the stream cleanly and the body is not cached (the error
// return reaches the memo, whose KeepErr drops it).
func (s *Server) streamSweep(ctx context.Context, w io.Writer, flusher http.Flusher, cells []sim.RowSpec) ([]byte, error) {
	var buf bytes.Buffer
	fl := newRowFlusher(&buf, w, flusher, len(cells))
	_, _, err := engine.MapPartialNotify(ctx, s.eng.Pool(), len(cells),
		func(ctx context.Context, i int) (struct{}, error) {
			res, rerr := s.runRow(ctx, cells[i])
			if rerr != nil {
				return struct{}{}, rerr
			}
			line, merr := json.Marshal(sweepRow{Index: i, Result: res})
			if merr != nil {
				return struct{}{}, merr
			}
			fl.store(i, append(line, '\n'))
			return struct{}{}, nil
		},
		fl.complete)
	fl.finish(len(cells), err)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
