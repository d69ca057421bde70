package engine

import (
	"context"
	"errors"
	"testing"
)

func TestMapTimeoutZeroMeansNone(t *testing.T) {
	got, _, err := MapPartialNotify(context.Background(), New(2), 4,
		func(ctx context.Context, i int) (int, error) {
			if _, ok := ctx.Deadline(); ok {
				return 0, errors.New("job context carries a deadline")
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

func TestMapPartialCleanRun(t *testing.T) {
	got, done, err := MapPartialNotify(context.Background(), New(2), 5,
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
	got, done, err := MapPartialNotify(ctx, New(1), n,
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
	_, done, err := MapPartialNotify(context.Background(), New(2), 2,
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
