package engine

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestMapTimeoutClassifiesStuckJob(t *testing.T) {
	_, _, err := MapPartialNotify(context.Background(), New(2), 3, 20*time.Millisecond,
		func(ctx context.Context, i int) (int, error) {
			if i == 1 {
				<-ctx.Done() // stuck job: only its deadline frees it
				return 0, ctx.Err()
			}
			return i, nil
		}, nil)
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("err = %v, want a *TimeoutError", err)
	}
	if te.Index != 1 || te.Timeout != 20*time.Millisecond {
		t.Errorf("TimeoutError = %+v", te)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("TimeoutError must unwrap to context.DeadlineExceeded")
	}
}

func TestMapTimeoutZeroMeansNone(t *testing.T) {
	got, _, err := MapPartialNotify(context.Background(), New(2), 4, 0,
		func(ctx context.Context, i int) (int, error) {
			if _, ok := ctx.Deadline(); ok {
				return 0, errors.New("deadline set despite timeout 0")
			}
			return i, nil
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("got %v", got)
	}
}

func TestMapTimeoutCallerCancelIsNotATimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	_, _, err := MapPartialNotify(ctx, New(1), 1, time.Hour,
		func(jobCtx context.Context, i int) (int, error) {
			close(started)
			<-jobCtx.Done()
			return 0, jobCtx.Err()
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var te *TimeoutError
	if errors.As(err, &te) {
		t.Fatalf("caller cancellation misclassified as %v", te)
	}
}

func TestMapPartialCleanRun(t *testing.T) {
	got, done, err := MapPartialNotify(context.Background(), New(2), 5, 0,
		func(_ context.Context, i int) (int, error) { return i * 2, nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !done[i] || got[i] != i*2 {
			t.Fatalf("result[%d] = %d done=%v", i, got[i], done[i])
		}
	}
}

// TestMapPartialFlushesCompletedOnCancel is the SIGINT scenario: the
// caller cancels mid-sweep; completed jobs stay flagged and usable.
func TestMapPartialFlushesCompletedOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 6
	got, done, err := MapPartialNotify(ctx, New(1), n, 0,
		func(jobCtx context.Context, i int) (int, error) {
			if i == 2 {
				cancel() // "SIGINT" arrives while job 2 runs
				<-jobCtx.Done()
				return 0, jobCtx.Err()
			}
			return i + 100, nil
		}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !done[0] || !done[1] {
		t.Fatalf("completed jobs lost: done = %v", done)
	}
	if got[0] != 100 || got[1] != 101 {
		t.Fatalf("completed results lost: %v", got)
	}
	if done[2] {
		t.Error("the interrupted job reported done")
	}
}

func TestMapPartialKeepsRealErrorDropsEchoes(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{})
	_, done, err := MapPartialNotify(context.Background(), New(2), 2, 0,
		func(jobCtx context.Context, i int) (int, error) {
			if i == 1 {
				close(started)
				<-jobCtx.Done() // sibling echoes the cancellation
				return 0, jobCtx.Err()
			}
			<-started
			return 0, boom
		}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the real failure", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("err = %v; sibling cancellation echoes must be dropped", err)
	}
	if done[0] || done[1] {
		t.Errorf("done = %v, want none", done)
	}
}

func TestMapPartialTimeout(t *testing.T) {
	_, done, err := MapPartialNotify(context.Background(), New(1), 2, 15*time.Millisecond,
		func(ctx context.Context, i int) (int, error) {
			if i == 0 {
				return 7, nil
			}
			<-ctx.Done()
			return 0, ctx.Err()
		}, nil)
	var te *TimeoutError
	if !errors.As(err, &te) || te.Index != 1 {
		t.Fatalf("err = %v, want job 1's *TimeoutError", err)
	}
	if !done[0] || done[1] {
		t.Fatalf("done = %v, want [true false]", done)
	}
}
