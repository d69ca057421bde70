package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// fastOpts is the supervision tuning for tests: quick heartbeats and
// backoffs so failure handling runs in milliseconds, not seconds.
func fastOpts(shards int) Options {
	return Options{
		Shards:            shards,
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
		BackoffBase:       10 * time.Millisecond,
		BackoffMax:        50 * time.Millisecond,
		DrainTimeout:      2 * time.Second,
	}
}

func TestShardedMatchesLocalByteIdentical(t *testing.T) {
	n := 20
	want := mustRun(t, n, Options{Stderr: &syncBuffer{}})
	for _, shards := range []int{1, 2, 4} {
		opts := fastOpts(shards)
		opts.Stderr = &syncBuffer{}
		got := mustRun(t, n, opts)
		assertSameRows(t, fmt.Sprintf("shards=%d vs local", shards), got, want)
	}
}

func TestShardedWritesCheckpoint(t *testing.T) {
	path := t.TempDir() + "/grid.ckpt"
	opts := fastOpts(2)
	opts.Checkpoint = path
	opts.Stderr = &syncBuffer{}
	mustRun(t, 8, opts)
	c, err := LoadCheckpoint(path)
	if err != nil || len(c.Rows) != 8 {
		t.Fatalf("checkpoint after sharded run: %v rows=%d", err, len(c.Rows))
	}
}

func TestKilledWorkerRequeuedByteIdentical(t *testing.T) {
	n := 12
	want := mustRun(t, n, Options{Stderr: &syncBuffer{}})
	var stderr syncBuffer
	opts := fastOpts(2)
	opts.Stderr = &stderr
	opts.Env = []string{envCrashIndex + "=5"}
	got := mustRun(t, n, opts)
	assertSameRows(t, "after worker crash", got, want)
	if !strings.Contains(stderr.String(), "restart 1/") {
		t.Fatalf("stderr missing restart warning:\n%s", stderr.String())
	}
}

func TestWedgedWorkerKilledByHeartbeatTimeout(t *testing.T) {
	n := 10
	want := mustRun(t, n, Options{Stderr: &syncBuffer{}})
	var stderr syncBuffer
	opts := fastOpts(2)
	opts.Stderr = &stderr
	opts.Env = []string{envWedgeIndex + "=3"}
	got := mustRun(t, n, opts)
	assertSameRows(t, "after wedged worker", got, want)
	out := stderr.String()
	if !strings.Contains(out, "silent for") {
		t.Fatalf("stderr missing heartbeat-timeout warning:\n%s", out)
	}
	if !strings.Contains(out, "restart 1/") {
		t.Fatalf("stderr missing restart warning:\n%s", out)
	}
}

func TestRestartBudgetExhaustionDegradesInProcess(t *testing.T) {
	n := 8
	want := mustRun(t, n, Options{Stderr: &syncBuffer{}})
	var stderr syncBuffer
	opts := fastOpts(1)
	opts.MaxRestarts = 2
	opts.Stderr = &stderr
	// Every incarnation crashes on index 2: the slot burns its whole
	// restart budget, retires, and the run must degrade in-process and
	// still produce identical bytes.
	opts.Env = []string{envCrashEvery + "=2"}
	got := mustRun(t, n, opts)
	assertSameRows(t, "after budget exhaustion", got, want)
	out := stderr.String()
	if !strings.Contains(out, "restart budget exhausted") {
		t.Fatalf("stderr missing retirement warning:\n%s", out)
	}
	if !strings.Contains(out, "in-process") {
		t.Fatalf("stderr missing degradation warning:\n%s", out)
	}
}

func TestSpawnFailureDegradesInProcess(t *testing.T) {
	n := 6
	want := mustRun(t, n, Options{Stderr: &syncBuffer{}})
	var stderr syncBuffer
	opts := fastOpts(2)
	// Workers re-execute os.Args[0]; point it at a missing binary for
	// this run only (no test in the package runs in parallel).
	self := os.Args[0]
	os.Args[0] = "/nonexistent/dist-worker-binary"
	t.Cleanup(func() { os.Args[0] = self })
	opts.Stderr = &stderr
	got := mustRun(t, n, opts)
	assertSameRows(t, "after spawn failure", got, want)
	out := stderr.String()
	if !strings.Contains(out, "cannot spawn") {
		t.Fatalf("stderr missing spawn warning:\n%s", out)
	}
	if !strings.Contains(out, "in-process") {
		t.Fatalf("stderr missing degradation warning:\n%s", out)
	}
}

func TestShardedJobErrorAbortsWithWorkerError(t *testing.T) {
	opts := fastOpts(2)
	opts.Setup = []byte(`{"fail_index":3}`)
	opts.Stderr = &syncBuffer{}
	_, done, err := Run(context.Background(), testKind, testGrid(8), opts)
	if err == nil {
		t.Fatal("Run succeeded despite failing job")
	}
	var we *WorkerError
	if !errors.As(err, &we) || we.Index != 3 {
		t.Fatalf("error %v does not carry WorkerError for index 3", err)
	}
	if done[3] {
		t.Fatal("failed row marked done")
	}
}

func TestShardedUnknownKindFailsWithoutFallback(t *testing.T) {
	opts := fastOpts(2)
	opts.Stderr = &syncBuffer{}
	_, _, err := Run(context.Background(), "no.such.kind", testGrid(4), opts)
	if err == nil || !strings.Contains(err.Error(), "not registered") {
		t.Fatalf("got %v, want unregistered-kind handshake failure", err)
	}
}

func TestShardedResumeSkipsCompletedRows(t *testing.T) {
	n := 10
	payloads := testGrid(n)
	path := t.TempDir() + "/grid.ckpt"
	full := mustRun(t, n, Options{Checkpoint: path, Stderr: &syncBuffer{}})
	// Drop rows 4..9 from the checkpoint, then resume sharded.
	c, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	kept := c.Rows[:0]
	for _, r := range c.Rows {
		if r.Index < 4 {
			kept = append(kept, r)
		}
	}
	c.Rows = kept
	if err := SaveCheckpoint(path, c); err != nil {
		t.Fatal(err)
	}
	var stderr syncBuffer
	opts := fastOpts(2)
	opts.Checkpoint = path
	opts.Resume = true
	opts.Stderr = &stderr
	got, done, err := Run(context.Background(), testKind, payloads, opts)
	if err != nil {
		t.Fatalf("resumed sharded run: %v", err)
	}
	for i := range done {
		if !done[i] {
			t.Fatalf("row %d not done", i)
		}
	}
	assertSameRows(t, "sharded resume vs full run", got, full)
	if !strings.Contains(stderr.String(), "resumed 4/10 rows") {
		t.Fatalf("stderr missing resume note:\n%s", stderr.String())
	}
}
