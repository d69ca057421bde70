package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	for _, w := range []int{0, -3} {
		if got := New(w).Workers(); got != want {
			t.Errorf("New(%d).Workers() = %d, want GOMAXPROCS = %d", w, got, want)
		}
	}
	if got := New(5).Workers(); got != 5 {
		t.Errorf("New(5).Workers() = %d", got)
	}
}

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		p := New(workers)
		got, err := Map(context.Background(), p, 64, func(_ context.Context, i int) (int, error) {
			// Skew completion order: later indices yield less.
			for y := 0; y < 64-i; y++ {
				runtime.Gosched()
			}
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapZeroJobs(t *testing.T) {
	got, err := Map(context.Background(), New(4), 0, func(_ context.Context, i int) (int, error) {
		t.Error("job ran")
		return 0, nil
	})
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestMapRespectsWorkerBound(t *testing.T) {
	const workers = 3
	var cur, max atomic.Int64
	_, err := Map(context.Background(), New(workers), 48, func(_ context.Context, i int) (int, error) {
		n := cur.Add(1)
		for {
			m := max.Load()
			if n <= m || max.CompareAndSwap(m, n) {
				break
			}
		}
		for y := 0; y < 10; y++ {
			runtime.Gosched()
		}
		cur.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := max.Load(); m > workers {
		t.Errorf("observed %d concurrent jobs, bound is %d", m, workers)
	}
}

func TestMapAggregatesAllErrors(t *testing.T) {
	errA := errors.New("job A failed")
	errB := errors.New("job B failed")
	var ready sync.WaitGroup
	ready.Add(2)
	_, err := Map(context.Background(), New(2), 2, func(_ context.Context, i int) (int, error) {
		// Rendezvous so both jobs are in flight before either fails:
		// both errors must survive into the aggregate.
		ready.Done()
		ready.Wait()
		if i == 0 {
			return 0, errA
		}
		return 0, errB
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("err = %v, want both job errors joined", err)
	}
}

func TestMapFirstErrorCancelsRunningSiblings(t *testing.T) {
	boom := errors.New("boom")
	started := make(chan struct{})
	// Job 1 blocks until the run is cancelled; if job 0's failure did
	// not propagate, the test would hang on wg.Wait inside Map.
	_, err := Map(context.Background(), New(2), 2, func(ctx context.Context, i int) (int, error) {
		if i == 1 {
			close(started)
			<-ctx.Done()
			return 0, ctx.Err()
		}
		<-started
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the failing job's error", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, should also aggregate the cancelled sibling", err)
	}
}

func TestMapSkipsJobsAfterError(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	const n = 1000
	_, err := Map(context.Background(), New(1), n, func(_ context.Context, i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if s := started.Load(); s >= n {
		t.Errorf("all %d jobs ran despite job 0 failing; pending jobs must be skipped", s)
	}
}

func TestMapContainsPanics(t *testing.T) {
	_, err := Map(context.Background(), New(2), 8, func(_ context.Context, i int) (int, error) {
		if i == 2 {
			panic("kaboom")
		}
		return i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want a *PanicError", err)
	}
	if pe.Value != "kaboom" {
		t.Errorf("panic value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
}

func TestMapParentContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := Map(ctx, New(2), 4, func(_ context.Context, i int) (int, error) {
		ran = true
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("jobs ran under an already-cancelled context")
	}
}

func TestMapExternalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	go func() {
		<-started
		cancel()
	}()
	var once sync.Once
	_, err := Map(ctx, New(2), 4, func(jobCtx context.Context, i int) (int, error) {
		once.Do(func() { close(started) })
		<-jobCtx.Done()
		return 0, jobCtx.Err()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestMemoComputesOncePerKey(t *testing.T) {
	m := NewMemoConfig(MemoConfig[string, int]{})
	computes := 0
	fn := func() (int, error) { computes++; return 42, nil }
	for i := 0; i < 3; i++ {
		v, err := m.Do(context.Background(), "k", fn)
		if err != nil || v != 42 {
			t.Fatalf("Do #%d = %d, %v", i, v, err)
		}
	}
	if computes != 1 {
		t.Errorf("computed %d times, want 1", computes)
	}
	if m.Hits() != 2 || m.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", m.Hits(), m.Misses())
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d", m.Len())
	}
}

func TestMemoSingleflight(t *testing.T) {
	m := NewMemoConfig(MemoConfig[string, int]{})
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do(context.Background(), "k", func() (int, error) {
				computes.Add(1)
				<-release
				return 7, nil
			})
			if err != nil || v != 7 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if c := computes.Load(); c != 1 {
		t.Errorf("computed %d times, want 1", c)
	}
	if m.Hits() != 7 || m.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 7/1", m.Hits(), m.Misses())
	}
}

func TestMemoCachesErrors(t *testing.T) {
	m := NewMemoConfig(MemoConfig[string, int]{})
	boom := errors.New("deterministic failure")
	computes := 0
	for i := 0; i < 2; i++ {
		_, err := m.Do(context.Background(), "k", func() (int, error) {
			computes++
			return 0, boom
		})
		if !errors.Is(err, boom) {
			t.Fatalf("Do #%d err = %v", i, err)
		}
	}
	if computes != 1 {
		t.Errorf("a deterministic error was recomputed %d times", computes)
	}
}

func TestMemoDoesNotCacheCancellation(t *testing.T) {
	m := NewMemoConfig(MemoConfig[string, int]{})
	calls := 0
	fn := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, fmt.Errorf("wrapped: %w", context.Canceled)
		}
		return 9, nil
	}
	if _, err := m.Do(context.Background(), "k", fn); !errors.Is(err, context.Canceled) {
		t.Fatalf("first Do err = %v", err)
	}
	v, err := m.Do(context.Background(), "k", fn)
	if err != nil || v != 9 {
		t.Fatalf("second Do = %d, %v; cancellation must not be cached", v, err)
	}
	if m.Misses() != 2 {
		t.Errorf("misses = %d, want 2 (retry after cancellation)", m.Misses())
	}
}

func TestMemoWaiterHonoursItsContext(t *testing.T) {
	m := NewMemoConfig(MemoConfig[string, int]{})
	release := make(chan struct{})
	inFlight := make(chan struct{})
	go func() {
		_, _ = m.Do(context.Background(), "k", func() (int, error) {
			close(inFlight)
			<-release
			return 1, nil
		})
	}()
	<-inFlight
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Do(ctx, "k", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want its own context's cancellation", err)
	}
	close(release)
}

func TestMemoPanicNotCached(t *testing.T) {
	m := NewMemoConfig(MemoConfig[string, int]{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate")
			}
		}()
		_, _ = m.Do(context.Background(), "k", func() (int, error) { panic("bad") })
	}()
	v, err := m.Do(context.Background(), "k", func() (int, error) { return 3, nil })
	if err != nil || v != 3 {
		t.Fatalf("Do after panic = %d, %v; the poisoned entry must be dropped", v, err)
	}
}
