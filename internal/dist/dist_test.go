package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestMain lets the test binary serve as its own dist worker: the
// supervisor re-invokes os.Args[0] with WorkerFlag, which is exactly
// how the real commands embed their worker mode.
func TestMain(m *testing.M) {
	MaybeWorkerMain()
	os.Exit(m.Run())
}

// testKind is a deterministic toy job: result is a float computed from
// the payload seed, exercising the exact float64 round-trip the real
// simulation results rely on. Setup can inject a failing index and a
// per-job delay.
const testKind = "disttest.echo"

type testSetup struct {
	Scale     float64 `json:"scale"`
	FailIndex int     `json:"fail_index"`
	DelayMS   int     `json:"delay_ms"`
}

type testPayload struct {
	Index int   `json:"index"`
	Seed  int64 `json:"seed"`
}

type testResult struct {
	Index int     `json:"index"`
	V     float64 `json:"v"`
}

func init() {
	Register(testKind, func(setup json.RawMessage) (Runner, error) {
		cfg := testSetup{Scale: 1, FailIndex: -1}
		if len(setup) > 0 {
			if err := json.Unmarshal(setup, &cfg); err != nil {
				return nil, err
			}
		}
		return func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
			var p testPayload
			if err := json.Unmarshal(payload, &p); err != nil {
				return nil, err
			}
			if cfg.DelayMS > 0 {
				t := time.NewTimer(time.Duration(cfg.DelayMS) * time.Millisecond)
				select {
				case <-ctx.Done():
					t.Stop()
					return nil, ctx.Err()
				case <-t.C:
				}
			}
			if p.Index == cfg.FailIndex {
				return nil, fmt.Errorf("synthetic failure at index %d", p.Index)
			}
			return json.Marshal(testResult{Index: p.Index, V: math.Sqrt(float64(p.Seed)+0.25) * cfg.Scale})
		}, nil
	})
}

// testGrid builds n payloads with seeds derived from the index.
func testGrid(n int) []json.RawMessage {
	payloads := make([]json.RawMessage, n)
	for i := range payloads {
		b, err := json.Marshal(testPayload{Index: i, Seed: int64(i)*7919 + 13})
		if err != nil {
			panic(err)
		}
		payloads[i] = b
	}
	return payloads
}

// syncBuffer is a mutex-guarded stderr sink: the supervisor loop and
// the per-worker stderr copy goroutines all write to it concurrently.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer // guarded by mu
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// mustRun executes the grid and fails the test on error.
func mustRun(t *testing.T, n int, opts Options) []json.RawMessage {
	t.Helper()
	results, done, err := Run(context.Background(), testKind, testGrid(n), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("row %d not done", i)
		}
	}
	return results
}

// assertSameRows byte-compares two result sets.
func assertSameRows(t *testing.T, label string, got, want []json.RawMessage) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: row %d differs:\n  got  %s\n  want %s", label, i, got[i], want[i])
		}
	}
}

func TestRunLocal(t *testing.T) {
	results := mustRun(t, 8, Options{LocalWorkers: 2})
	var r testResult
	if err := json.Unmarshal(results[3], &r); err != nil || r.Index != 3 {
		t.Fatalf("row 3 = %s (err %v)", results[3], err)
	}
}

func TestRunLocalWritesCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	mustRun(t, 6, Options{Checkpoint: path})
	c, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("LoadCheckpoint: %v", err)
	}
	if len(c.Rows) != 6 || c.N != 6 || c.Kind != testKind {
		t.Fatalf("checkpoint = %+v", c)
	}
}

func TestRunResumeSkipsCompletedRows(t *testing.T) {
	n := 6
	payloads := testGrid(n)
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	// Seed the checkpoint with sentinel results for rows 1 and 4. Resume
	// must keep these bytes verbatim — proof the rows are not recomputed.
	sentinel1, sentinel4 := json.RawMessage(`{"sentinel":1}`), json.RawMessage(`{"sentinel":4}`)
	prev := &Checkpoint{Kind: testKind, GridHash: GridHash(testKind, nil, payloads), N: n,
		Rows: []CheckpointRow{{Index: 1, Result: sentinel1}, {Index: 4, Result: sentinel4}}}
	if err := SaveCheckpoint(path, prev); err != nil {
		t.Fatal(err)
	}
	var stderr syncBuffer
	results, done, err := Run(context.Background(), testKind, payloads, Options{Checkpoint: path, Resume: true, Stderr: &stderr})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i, d := range done {
		if !d {
			t.Fatalf("row %d not done", i)
		}
	}
	if !bytes.Equal(results[1], sentinel1) || !bytes.Equal(results[4], sentinel4) {
		t.Fatalf("resumed rows were recomputed: %s / %s", results[1], results[4])
	}
	if !bytes.Contains([]byte(stderr.String()), []byte("resumed 2/6 rows")) {
		t.Fatalf("stderr missing resume note:\n%s", stderr.String())
	}
	c, err := LoadCheckpoint(path)
	if err != nil || len(c.Rows) != n {
		t.Fatalf("final checkpoint: %v rows=%d", err, len(c.Rows))
	}
}

func TestRunResumeRejectsStaleCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	mustRun(t, 4, Options{Checkpoint: path})
	// Same path, different grid (one more row): must be rejected.
	_, _, err := Run(context.Background(), testKind, testGrid(5), Options{Checkpoint: path, Resume: true, Stderr: &syncBuffer{}})
	if !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("got %v, want ErrStaleCheckpoint", err)
	}
	// Same row count but different setup (part of the grid hash): rejected.
	_, _, err = Run(context.Background(), testKind, testGrid(4),
		Options{Checkpoint: path, Resume: true, Setup: []byte(`{"scale":2}`), Stderr: &syncBuffer{}})
	if !errors.Is(err, ErrStaleCheckpoint) {
		t.Fatalf("setup change: got %v, want ErrStaleCheckpoint", err)
	}
}

func TestRunResumeMissingCheckpointStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never-written.ckpt")
	var stderr syncBuffer
	results, done, err := Run(context.Background(), testKind, testGrid(3),
		Options{Checkpoint: path, Resume: true, Stderr: &stderr})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := range done {
		if !done[i] || len(results[i]) == 0 {
			t.Fatalf("row %d incomplete", i)
		}
	}
	if !bytes.Contains([]byte(stderr.String()), []byte("starting fresh")) {
		t.Fatalf("stderr missing starting-fresh note:\n%s", stderr.String())
	}
}

func TestRunJobErrorReturnsPartialResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	_, done, err := Run(context.Background(), testKind, testGrid(5),
		Options{Checkpoint: path, Setup: []byte(`{"fail_index":2}`), LocalWorkers: 1, Stderr: &syncBuffer{}})
	if err == nil {
		t.Fatal("Run succeeded despite failing job")
	}
	if done[2] {
		t.Fatal("failed row marked done")
	}
	// The checkpoint holds exactly the done rows.
	c, err2 := LoadCheckpoint(path)
	if err2 != nil {
		t.Fatal(err2)
	}
	nDone := 0
	for _, d := range done {
		if d {
			nDone++
		}
	}
	if len(c.Rows) != nDone {
		t.Fatalf("checkpoint has %d rows, done count is %d", len(c.Rows), nDone)
	}
}

func TestRunCancelThenResumeByteIdentical(t *testing.T) {
	n := 10
	payloads := testGrid(n)
	setup := json.RawMessage(`{"delay_ms":15}`)
	want, doneAll, err := Run(context.Background(), testKind, payloads, Options{Setup: setup, LocalWorkers: 1})
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	for i := range doneAll {
		if !doneAll[i] {
			t.Fatalf("uninterrupted run left row %d undone", i)
		}
	}

	path := filepath.Join(t.TempDir(), "grid.ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Cancel once the checkpoint holds a few rows — mid-campaign.
		for {
			if c, err := LoadCheckpoint(path); err == nil && len(c.Rows) >= 3 {
				cancel()
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	_, donePart, err := Run(ctx, testKind, payloads,
		Options{Setup: setup, LocalWorkers: 1, Checkpoint: path, Stderr: &syncBuffer{}})
	cancel()
	if err == nil {
		t.Fatal("interrupted run reported no error")
	}
	interrupted := false
	for i := range donePart {
		if !donePart[i] {
			interrupted = true
		}
	}
	if !interrupted {
		t.Skip("run completed before cancellation landed; nothing to resume")
	}

	got, doneRes, err := Run(context.Background(), testKind, payloads,
		Options{Setup: setup, LocalWorkers: 1, Checkpoint: path, Resume: true, Stderr: &syncBuffer{}})
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	for i := range doneRes {
		if !doneRes[i] {
			t.Fatalf("resumed run left row %d undone", i)
		}
	}
	assertSameRows(t, "interrupted-then-resumed vs uninterrupted", got, want)
}
