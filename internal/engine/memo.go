package engine

import (
	"context"
	"errors"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Memo is a concurrency-safe, singleflight memoization table: for each
// key the computation runs exactly once, concurrent requesters for the
// same key wait on the one in-flight computation, and completed results
// (including non-transient errors) are cached until evicted.
//
// The experiment driver keys a Memo by RunSpec, so a simulation pinned
// by (scheme, benchmark, operating point, seeds) — a defect-free
// baseline shared by several figures, say — is never simulated twice on
// the same engine.
//
// A zero MemoConfig caches forever, which is the right shape for a
// one-shot CLI sweep but leaks one entry per distinct key in a
// long-lived process. The config's caps bound the table by LRU eviction
// of *completed* entries (an in-flight computation is pinned — evicting
// it would break the singleflight contract).
type Memo[K comparable, V any] struct {
	cfg MemoConfig[K, V]

	mu sync.Mutex
	// m maps each key to its single computation. guarded by mu
	m map[K]*flight[K, V]
	// head/tail are the LRU list of completed entries (head most
	// recent). In-flight entries are not linked. guarded by mu
	head, tail *flight[K, V]
	// bytes sums completed entry sizes. guarded by mu
	bytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// MemoConfig bounds a Memo. The zero value has no caps and caches every
// error other than cancellation.
type MemoConfig[K comparable, V any] struct {
	// MaxEntries caps the table's completed+in-flight entry count;
	// 0 means unbounded. In-flight entries count against the cap but
	// are never evicted, so a burst of distinct in-flight keys may
	// transiently exceed it.
	MaxEntries int
	// MaxBytes caps the total Size of completed entries; 0 means
	// unbounded. Requires Size.
	MaxBytes int64
	// Size reports the retained size of a completed entry for the
	// MaxBytes cap. Only consulted when MaxBytes > 0.
	Size func(K, V) int64
	// KeepErr decides whether a failed computation is cached like a
	// value (true) or forgotten so the next Do retries (false). Nil
	// keeps every error: reruns of a deterministic computation would
	// fail identically. Cancellation errors (context.Canceled,
	// context.DeadlineExceeded) are always forgotten regardless.
	KeepErr func(error) bool
}

// flight is one per-key computation; done closes when val/err are set.
// complete and the list links are guarded by the Memo's mu.
type flight[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error

	size       int64
	complete   bool
	prev, next *flight[K, V]
}

// NewMemoConfig returns a memoization table bounded per cfg. It panics
// when MaxBytes > 0 comes without Size: that is a programming error,
// not a runtime condition.
func NewMemoConfig[K comparable, V any](cfg MemoConfig[K, V]) *Memo[K, V] {
	if cfg.MaxBytes > 0 && cfg.Size == nil {
		//lvlint:ignore nopanic constructor config guard: a byte-capped memo without a sizer cannot account
		panic("engine: MemoConfig.MaxBytes > 0 requires Size")
	}
	return &Memo[K, V]{cfg: cfg, m: make(map[K]*flight[K, V])}
}

// Do returns the memoized result for key, computing it with fn on the
// first request. Concurrent calls with the same key share one
// computation; callers that find a computation already in flight (or
// finished) count as hits and wait for it, honouring their own ctx. A
// computation that fails with the context's cancellation error — or an
// error the config's KeepErr rejects — is forgotten rather than cached,
// so a later request retries; every other error is cached like a value.
// A completed entry may later be evicted under the configured caps, in
// which case the next Do recomputes it (a fresh miss).
func (m *Memo[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, error) {
	m.mu.Lock()
	if f, ok := m.m[key]; ok {
		if f.complete {
			m.moveToFront(f)
		}
		m.mu.Unlock()
		m.hits.Add(1)
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			var zero V
			return zero, ctx.Err()
		}
	}
	f := &flight[K, V]{key: key, done: make(chan struct{})}
	m.m[key] = f
	m.mu.Unlock()
	m.misses.Add(1)

	defer func() {
		if r := recover(); r != nil {
			// Contain the panic long enough to release waiters with a
			// real error and drop the poisoned entry, then let it
			// continue into the scheduler's containment (Map wraps it
			// in a *PanicError and cancels the run).
			f.err = &PanicError{Value: r, Stack: debug.Stack()}
			m.forget(key, f)
			close(f.done)
			//lvlint:ignore nopanic re-propagating a contained job panic so engine.Map can report it
			panic(r)
		}
	}()
	f.val, f.err = fn()
	if f.err != nil && !m.keepErr(f.err) {
		m.forget(key, f)
	} else {
		m.commit(f)
	}
	close(f.done)
	return f.val, f.err
}

// keepErr decides whether a failed computation stays cached.
func (m *Memo[K, V]) keepErr(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	if m.cfg.KeepErr != nil {
		return m.cfg.KeepErr(err)
	}
	return true
}

// commit marks a finished flight complete, links it into the LRU list
// and evicts over-cap entries. The flight may have been forgotten by a
// concurrent panic path only for its own goroutine, so presence in the
// map is re-checked under the lock.
func (m *Memo[K, V]) commit(f *flight[K, V]) {
	var size int64
	if m.cfg.Size != nil && f.err == nil {
		size = m.cfg.Size(f.key, f.val)
	}
	m.mu.Lock()
	if m.m[f.key] != f {
		m.mu.Unlock()
		return
	}
	f.complete = true
	f.size = size
	m.bytes += size
	m.pushFront(f)
	m.evictLocked()
	m.mu.Unlock()
}

// evictLocked drops least-recently-used completed entries until the
// table is back under its caps. In-flight entries are never evicted:
// they are not in the LRU list, so a table whose population is all
// in-flight simply overshoots until computations finish. caller holds mu.
func (m *Memo[K, V]) evictLocked() {
	for m.tail != nil &&
		((m.cfg.MaxEntries > 0 && len(m.m) > m.cfg.MaxEntries) ||
			(m.cfg.MaxBytes > 0 && m.bytes > m.cfg.MaxBytes)) {
		victim := m.tail
		m.unlink(victim)
		delete(m.m, victim.key)
		m.bytes -= victim.size
		m.evictions.Add(1)
	}
}

// forget drops a key so the next Do recomputes it, but only while it
// still maps to this flight — an evicted-and-replaced key belongs to
// its new computation. Only in-flight entries reach here (the error and
// panic paths run before commit), so no LRU or byte accounting applies.
func (m *Memo[K, V]) forget(key K, f *flight[K, V]) {
	m.mu.Lock()
	if m.m[key] == f {
		delete(m.m, key)
	}
	m.mu.Unlock()
}

// pushFront links f as the most recently used completed entry.
// caller holds mu.
func (m *Memo[K, V]) pushFront(f *flight[K, V]) {
	f.prev, f.next = nil, m.head
	if m.head != nil {
		m.head.prev = f
	}
	m.head = f
	if m.tail == nil {
		m.tail = f
	}
}

// unlink removes f from the LRU list. caller holds mu.
func (m *Memo[K, V]) unlink(f *flight[K, V]) {
	if f.prev != nil {
		f.prev.next = f.next
	} else if m.head == f {
		m.head = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else if m.tail == f {
		m.tail = f.prev
	}
	f.prev, f.next = nil, nil
}

// moveToFront marks f most recently used. caller holds mu.
func (m *Memo[K, V]) moveToFront(f *flight[K, V]) {
	if m.head == f {
		return
	}
	m.unlink(f)
	m.pushFront(f)
}

// Hits counts Do calls that were served by (or waited on) an existing
// computation.
func (m *Memo[K, V]) Hits() int64 { return m.hits.Load() }

// Misses counts Do calls that ran their computation (including reruns
// of evicted keys).
func (m *Memo[K, V]) Misses() int64 { return m.misses.Load() }

// Evictions counts completed entries dropped by the caps.
func (m *Memo[K, V]) Evictions() int64 { return m.evictions.Load() }

// SizeBytes returns the total configured Size of completed entries
// currently cached (always 0 without a Size func).
func (m *Memo[K, V]) SizeBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// Len returns the number of cached (or in-flight) keys.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}
