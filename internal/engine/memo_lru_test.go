package engine

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// fill runs one computed Do per key and fails the test on error.
func fill(t *testing.T, m *Memo[string, int], keys ...string) {
	t.Helper()
	for i, k := range keys {
		v := i
		if _, err := m.Do(context.Background(), k, func() (int, error) { return v, nil }); err != nil {
			t.Fatalf("Do(%q): %v", k, err)
		}
	}
}

func TestMemoEntryCapEvictsLRU(t *testing.T) {
	m := NewMemoConfig(MemoConfig[string, int]{MaxEntries: 2})
	fill(t, m, "a", "b")
	// Touch "a" so "b" is the LRU victim when "c" lands.
	if _, err := m.Do(context.Background(), "a", func() (int, error) {
		t.Fatal("hit recomputed")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	fill(t, m, "c")

	if got := m.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
	if got := m.Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	recomputed := false
	if _, err := m.Do(context.Background(), "b", func() (int, error) {
		recomputed = true
		return 9, nil
	}); err != nil {
		t.Fatal(err)
	}
	if !recomputed {
		t.Fatal("evicted key served from cache")
	}
}

func TestMemoByteCapEvicts(t *testing.T) {
	m := NewMemoConfig(MemoConfig[string, string]{
		MaxBytes: 10,
		Size:     func(k, v string) int64 { return int64(len(v)) },
	})
	ctx := context.Background()
	mk := func(k string, n int) {
		t.Helper()
		if _, err := m.Do(ctx, k, func() (string, error) { return strings.Repeat("x", n), nil }); err != nil {
			t.Fatal(err)
		}
	}
	mk("a", 4)
	mk("b", 4)
	if got := m.SizeBytes(); got != 8 {
		t.Fatalf("SizeBytes = %d, want 8", got)
	}
	mk("c", 4) // 12 > 10: evict "a"
	if got := m.SizeBytes(); got != 8 {
		t.Fatalf("SizeBytes after eviction = %d, want 8", got)
	}
	if got := m.Evictions(); got != 1 {
		t.Fatalf("Evictions = %d, want 1", got)
	}
	if got := m.Len(); got != 2 {
		t.Fatalf("Len = %d, want 2", got)
	}
}

// TestMemoEvictionPreservesSingleflight is the regression test for the
// bounded rewrite: with the table thrashing at cap 1, a thundering herd
// on one key must still compute exactly once, and an entry evicted
// between herds must recompute exactly once more — eviction changes
// retention, never the one-computation-per-flight contract.
func TestMemoEvictionPreservesSingleflight(t *testing.T) {
	m := NewMemoConfig(MemoConfig[string, int]{MaxEntries: 1})
	ctx := context.Background()

	var computes atomic.Int64
	herd := func(key string) {
		t.Helper()
		release := make(chan struct{})
		started := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := m.Do(ctx, key, func() (int, error) {
					computes.Add(1)
					close(started)
					<-release
					return 42, nil
				})
				if err != nil || v != 42 {
					t.Errorf("Do(%q) = %d, %v", key, v, err)
				}
			}()
		}
		<-started
		close(release)
		wg.Wait()
	}

	herd("k")
	if got := computes.Load(); got != 1 {
		t.Fatalf("computes after first herd = %d, want 1", got)
	}
	// Evict "k" by completing a different key at cap 1.
	fill(t, m, "other")
	// Second herd on the evicted key: exactly one more computation.
	herd("k")
	if got := computes.Load(); got != 2 {
		t.Fatalf("computes after re-herd on evicted key = %d, want 2", got)
	}
}

// An in-flight computation is pinned: completing sibling keys past the
// cap must never evict it out from under its waiters.
func TestMemoInFlightNeverEvicted(t *testing.T) {
	m := NewMemoConfig(MemoConfig[string, int]{MaxEntries: 1})
	ctx := context.Background()

	release := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := m.Do(ctx, "slow", func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		if err != nil || v != 7 {
			t.Errorf("Do(slow) = %d, %v", v, err)
		}
	}()
	<-started
	fill(t, m, "a", "b", "c") // churn completed entries past the cap
	// The in-flight entry must still coalesce: this waiter shares the
	// computation rather than starting a second one.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := m.Do(ctx, "slow", func() (int, error) {
			t.Error("in-flight entry was evicted: second computation started")
			return 0, nil
		})
		if err != nil || v != 7 {
			t.Errorf("waiter Do(slow) = %d, %v", v, err)
		}
	}()
	close(release)
	wg.Wait()
	if hits := m.Hits(); hits != 1 {
		t.Fatalf("Hits = %d, want 1 (the coalesced waiter)", hits)
	}
}

func TestMemoKeepErrDropsErrors(t *testing.T) {
	sentinel := errors.New("transient")
	m := NewMemoConfig(MemoConfig[string, int]{
		KeepErr: func(error) bool { return false },
	})
	ctx := context.Background()
	calls := 0
	do := func() (int, error) {
		calls++
		if calls == 1 {
			return 0, sentinel
		}
		return 5, nil
	}
	if _, err := m.Do(ctx, "k", do); !errors.Is(err, sentinel) {
		t.Fatalf("first Do err = %v, want sentinel", err)
	}
	v, err := m.Do(ctx, "k", do)
	if err != nil || v != 5 {
		t.Fatalf("retry Do = %d, %v; want 5, nil", v, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (error not cached)", calls)
	}
}

func TestMemoConfigGuards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MaxBytes without Size: no panic")
		}
	}()
	NewMemoConfig(MemoConfig[string, int]{MaxBytes: 1})
}
