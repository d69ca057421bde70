package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// A job that panics mid-grid must leave its done slot false and surface
// the *PanicError to the caller after the partial results are flushed —
// a checkpoint written from the done rows can never contain the
// panicked row.
func TestMapPartialPanicLeavesDoneFalse(t *testing.T) {
	p := New(1)
	results, done, err := MapPartialNotify(context.Background(), p, 5, func(ctx context.Context, i int) (int, error) {
		if i == 2 {
			panic("mid-grid")
		}
		return i * 10, nil
	}, nil)
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if pe.Value != "mid-grid" {
		t.Errorf("panic value = %v, want mid-grid", pe.Value)
	}
	// With one worker the jobs run in index order: 0 and 1 completed, 2
	// panicked, 3 and 4 were skipped by the cancellation.
	want := []bool{true, true, false, false, false}
	for i, w := range want {
		if done[i] != w {
			t.Errorf("done[%d] = %v, want %v", i, done[i], w)
		}
	}
	if results[2] != 0 {
		t.Errorf("results[2] = %d, want zero value for the panicked job", results[2])
	}
}

// notify fires strictly after done[i] is assigned and never for a
// failed, skipped or panicked job.
func TestMapPartialNotifyMatchesDoneRows(t *testing.T) {
	p := New(2)
	var mu sync.Mutex
	notified := map[int]bool{}
	_, done, err := MapPartialNotify(context.Background(), p, 8, func(ctx context.Context, i int) (int, error) {
		if i == 5 {
			return 0, errors.New("boom")
		}
		return i, nil
	}, func(i int) {
		mu.Lock()
		defer mu.Unlock()
		notified[i] = true
	})
	if err == nil {
		t.Fatal("want the job error to surface")
	}
	for i := range done {
		if done[i] != notified[i] {
			t.Errorf("row %d: done=%v notified=%v, want them equal", i, done[i], notified[i])
		}
	}
	if notified[5] {
		t.Error("failed job 5 must not be notified")
	}
}

// A panic inside the notify hook is contained like a job panic; the
// row's own result stays valid (done remains true).
func TestMapPartialNotifyPanicContained(t *testing.T) {
	p := New(1)
	_, done, err := MapPartialNotify(context.Background(), p, 3, func(ctx context.Context, i int) (int, error) {
		return i, nil
	}, func(i int) {
		if i == 0 {
			panic("flush failed")
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError from notify", err)
	}
	if !done[0] {
		t.Error("done[0] must remain true: the job itself completed")
	}
}

// Interrupted-then-resumed output is byte-identical to an uninterrupted
// run: complete the rows MapPartialNotify left undone in a second pass and
// merge by index — the contract internal/dist's checkpoint resume is
// built on.
func TestMapPartialInterruptedThenResumedByteIdentical(t *testing.T) {
	row := func(i int) string { return fmt.Sprintf("row %02d: %d", i, i*i) }
	const n = 12

	format := func(results []string) string {
		var b strings.Builder
		for _, r := range results {
			b.WriteString(r)
			b.WriteByte('\n')
		}
		return b.String()
	}

	// Uninterrupted reference.
	p := New(3)
	ref, err := Map(context.Background(), p, n, func(ctx context.Context, i int) (string, error) {
		return row(i), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted pass: cancel after four rows have completed.
	ctx, cancel := context.WithCancel(context.Background())
	var mu sync.Mutex
	completed := 0
	results, done, err := MapPartialNotify(ctx, p, n, func(ctx context.Context, i int) (string, error) {
		if err := ctx.Err(); err != nil {
			return "", err
		}
		return row(i), nil
	}, func(i int) {
		mu.Lock()
		defer mu.Unlock()
		if completed++; completed == 4 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	// Resume pass: run only the rows that did not complete.
	var missing []int
	for i, d := range done {
		if !d {
			missing = append(missing, i)
		}
	}
	if len(missing) == 0 {
		t.Fatal("interruption completed every row; nothing resumed")
	}
	rest, err := Map(context.Background(), p, len(missing), func(ctx context.Context, i int) (string, error) {
		return row(missing[i]), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for j, i := range missing {
		results[i] = rest[j]
	}
	if got, want := format(results), format(ref); got != want {
		t.Errorf("resumed output differs from uninterrupted run:\n got %q\nwant %q", got, want)
	}
}
