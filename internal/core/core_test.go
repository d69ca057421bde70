package core

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
)

func TestMemLatencyCycles(t *testing.T) {
	tests := []struct {
		mhz  float64
		want int
	}{
		{1607, 97}, // 60ns * 1.607GHz = 96.42 -> 97
		{475, 29},  // 60ns * 0.475GHz = 28.5 -> 29
		{1000, 60},
		{10, 1}, // floor would be 0.6 -> rounds up to 1
	}
	for _, tt := range tests {
		if got := MemLatencyCycles(tt.mhz); got != tt.want {
			t.Errorf("MemLatencyCycles(%v) = %d, want %d", tt.mhz, got, tt.want)
		}
	}
}

func TestMemLatencyScalesWithFrequency(t *testing.T) {
	// Higher frequency means memory costs more cycles.
	if MemLatencyCycles(1607) <= MemLatencyCycles(475) {
		t.Error("memory cycles must grow with frequency")
	}
}

func TestNewNextLevelValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewNextLevel(0) should panic")
		}
	}()
	NewNextLevel(0)
}

func TestReadBlockL2MissThenHit(t *testing.T) {
	n := NewNextLevel(100)
	lat, hit := n.ReadBlock(0x1000)
	if hit {
		t.Error("cold L2 read should miss")
	}
	if want := 10 + 100; lat != want {
		t.Errorf("miss latency = %d, want %d", lat, want)
	}
	if n.MemReads() != 1 {
		t.Errorf("MemReads = %d, want 1", n.MemReads())
	}
	lat, hit = n.ReadBlock(0x1000)
	if !hit {
		t.Error("second L2 read should hit")
	}
	if lat != 10 {
		t.Errorf("hit latency = %d, want 10", lat)
	}
	if n.DemandReads() != 2 {
		t.Errorf("DemandReads = %d, want 2", n.DemandReads())
	}
}

func TestWriteWordDoesNotCountAsDemandRead(t *testing.T) {
	n := NewNextLevel(100)
	n.WriteWord(0x40)
	n.WriteWord(0x44)
	if n.DemandReads() != 0 {
		t.Errorf("writes counted as demand reads: %d", n.DemandReads())
	}
	if n.WordWrites() != 2 {
		t.Errorf("WordWrites = %d, want 2", n.WordWrites())
	}
}

func TestWriteReachesL2Content(t *testing.T) {
	// A write-allocated block should be L2-resident afterwards.
	n := NewNextLevel(100)
	n.WriteWord(0x80)
	if _, hit := n.ReadBlock(0x80); !hit {
		t.Error("block written through should be resident in write-back L2")
	}
}

func TestOutcomeHelpers(t *testing.T) {
	n := NewNextLevel(50)
	h := HitOutcome(2)
	if !h.Hit || h.Latency != 2 || h.L2Reads != 0 || h.MemReads != 0 {
		t.Errorf("HitOutcome = %+v", h)
	}
	m := MissOutcome(2, n, 0x2000)
	if m.Hit {
		t.Error("MissOutcome must not be a hit")
	}
	if m.Latency != 2+10+50 || m.L2Reads != 1 || m.MemReads != 1 {
		t.Errorf("cold MissOutcome = %+v", m)
	}
	m2 := MissOutcome(2, n, 0x2000)
	if m2.Latency != 2+10 || m2.MemReads != 0 {
		t.Errorf("warm MissOutcome = %+v", m2)
	}
}

func TestL2Exposed(t *testing.T) {
	n := NewNextLevel(10)
	if n.L2().Config().SizeBytes != 512*1024 {
		t.Error("L2 config wrong")
	}
	if n.MemLatency() != 10 {
		t.Error("MemLatency accessor wrong")
	}
}

func TestWriteBufferCoalesces(t *testing.T) {
	n := NewNextLevel(100)
	// Eight stores to one block coalesce into a single buffered entry.
	for w := uint64(0); w < 8; w++ {
		n.WriteWord(0x100 + 4*w)
	}
	if n.WordWrites() != 8 {
		t.Errorf("WordWrites = %d, want 8", n.WordWrites())
	}
	if n.BlockDrains() != 0 {
		t.Errorf("BlockDrains = %d, want 0 (still buffered)", n.BlockDrains())
	}
	// Filling the buffer with distinct blocks evicts the oldest.
	for b := uint64(1); b <= WriteBufferEntries; b++ {
		n.WriteWord(0x1000 + b*32)
	}
	if n.BlockDrains() != 1 {
		t.Errorf("BlockDrains = %d, want 1 after overflow", n.BlockDrains())
	}
}

func TestWriteBufferForwardsToReads(t *testing.T) {
	// A demand read of a buffered block must drain it first, so the read
	// observes the written data (the block becomes L2-resident).
	n := NewNextLevel(100)
	n.WriteWord(0x200)
	if _, hit := n.ReadBlock(0x200); !hit {
		t.Error("read of a buffered block should hit: the drain write-allocates it before the read")
	}
	if n.BlockDrains() != 1 {
		t.Errorf("BlockDrains = %d, want 1 (drained by the read)", n.BlockDrains())
	}
}

func TestWriteBufferCoalescingRatio(t *testing.T) {
	// A store-heavy loop over a small set of blocks should coalesce the
	// overwhelming majority of its word writes.
	n := NewNextLevel(100)
	for i := 0; i < 10_000; i++ {
		block := uint64(i % 4)
		n.WriteWord(block*32 + uint64(i%8)*4)
	}
	ratio := float64(n.BlockDrains()) / float64(n.WordWrites())
	if ratio > 0.05 {
		t.Errorf("coalescing ratio = %.3f drains/word, want <= 0.05", ratio)
	}
}

// drainEvent is one WriteBlock call seen by a recording Lower.
type drainEvent struct {
	block   uint64
	forRead bool
}

// recordingLower logs every drain and answers every read as an L2 hit.
type recordingLower struct {
	drains []drainEvent
}

func (r *recordingLower) ReadBlock(uint64) (int, bool) { return 10, true }

func (r *recordingLower) WriteBlock(block uint64, forRead bool) {
	r.drains = append(r.drains, drainEvent{block, forRead})
}

// refWriteBuffer is the slice-backed FIFO NextLevel's write buffer is
// specified by: coalescing moves an entry to the back, a full buffer
// drains its oldest entry, and a demand read drains a matching entry
// first.
type refWriteBuffer struct {
	lower                           Lower
	wb                              []uint64
	demandReads, wordWrites, drains uint64
}

func (n *refWriteBuffer) ReadBlock(addr uint64) {
	block := cache.BlockAddr(addr)
	for i, b := range n.wb {
		if b == block {
			n.wb = append(n.wb[:i], n.wb[i+1:]...)
			n.drains++
			n.lower.WriteBlock(block, true)
			break
		}
	}
	n.demandReads++
	n.lower.ReadBlock(addr)
}

func (n *refWriteBuffer) WriteWord(addr uint64) {
	n.wordWrites++
	block := cache.BlockAddr(addr)
	for i, b := range n.wb {
		if b == block {
			n.wb = append(append(n.wb[:i], n.wb[i+1:]...), block)
			return
		}
	}
	if len(n.wb) >= WriteBufferEntries {
		oldest := n.wb[0]
		n.wb = n.wb[1:]
		n.drains++
		n.lower.WriteBlock(oldest, false)
	}
	n.wb = append(n.wb, block)
}

func TestWriteBufferMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// A block pool a little larger than the buffer exercises
		// coalescing, overflow drains and read-forced drains alike.
		pool := WriteBufferEntries + 1 + rng.Intn(2*WriteBufferEntries)
		gotLow, wantLow := &recordingLower{}, &recordingLower{}
		got := NewNextLevelOver(gotLow)
		want := &refWriteBuffer{lower: wantLow}
		for i := 0; i < 5000; i++ {
			addr := uint64(rng.Intn(pool))*cache.BlockBytes + uint64(rng.Intn(cache.WordsPerBlock))*cache.WordBytes
			if rng.Intn(4) == 0 {
				got.ReadBlock(addr)
				want.ReadBlock(addr)
			} else {
				got.WriteWord(addr)
				want.WriteWord(addr)
			}
		}
		if len(gotLow.drains) != len(wantLow.drains) {
			t.Fatalf("seed %d: %d drains, reference %d", seed, len(gotLow.drains), len(wantLow.drains))
		}
		for i := range gotLow.drains {
			if gotLow.drains[i] != wantLow.drains[i] {
				t.Fatalf("seed %d: drain %d = %+v, reference %+v", seed, i, gotLow.drains[i], wantLow.drains[i])
			}
		}
		if got.DemandReads() != want.demandReads || got.WordWrites() != want.wordWrites || got.BlockDrains() != want.drains {
			t.Errorf("seed %d: counters (reads %d, words %d, drains %d), reference (%d, %d, %d)", seed,
				got.DemandReads(), got.WordWrites(), got.BlockDrains(), want.demandReads, want.wordWrites, want.drains)
		}
	}
}

func TestWriteBufferDrainDoesNotAllocate(t *testing.T) {
	n := NewNextLevel(100)
	block := uint64(0)
	write := func() {
		n.WriteWord(block * cache.BlockBytes)
		block++
	}
	for i := 0; i < WriteBufferEntries; i++ {
		write()
	}
	// Every write names a fresh block, so each one drains the oldest
	// entry of a full buffer. Many per run, so an occasional regrowth
	// cannot average out to zero.
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			write()
		}
	})
	if allocs != 0 {
		t.Errorf("draining WriteWord allocates %.1f times per 64 calls, want 0", allocs)
	}
	if n.BlockDrains() == 0 {
		t.Fatal("no drains: the test did not exercise the overflow path")
	}
}
