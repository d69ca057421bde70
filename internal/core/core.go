// Package core defines the contracts shared by every L1 fault-tolerance
// scheme in the evaluation — the paper's two proposals (FFW for the data
// cache, BBR for the instruction cache) and the comparison schemes — plus
// the memory-system plumbing below L1: the unified write-back L2 and main
// memory.
//
// A scheme is anything that answers L1 accesses: it reports hit/miss, the
// latency the core observes, and the demand traffic it sent to the next
// level. The CPU timing model (package cpu) consumes these interfaces and
// is completely scheme-agnostic.
package core

import (
	"fmt"

	"repro/internal/cache"
)

// AccessOutcome describes what one L1 access did, as seen by the core and
// the memory system.
type AccessOutcome struct {
	// Hit reports whether the L1 satisfied the access without demand
	// traffic to the next level (for FFW, the requested word was present
	// in the fault-free window).
	Hit bool
	// Latency is the total cycle cost of this access on the load-use /
	// fetch path: base L1 latency, plus scheme overhead, plus next-level
	// latency on a miss.
	Latency int
	// L2Reads counts demand read accesses this access issued to the L2
	// (0 or 1); this is the quantity Figure 11 plots per 1000
	// instructions.
	L2Reads int
	// MemReads counts accesses that continued past the L2 to main memory.
	MemReads int
}

// DataCache is an L1 data cache under some fault-tolerance scheme.
// The paper's L1D is write-through with no write-allocate, so Write
// reports buffered store traffic but never demand fills.
type DataCache interface {
	// Name identifies the scheme (for reports).
	Name() string
	// HitLatency is the cycle cost of a hit, including any scheme
	// overhead on the critical path (Table III's latency column). It
	// is constant for the cache's lifetime: the cpu loop reads it once
	// per run.
	HitLatency() int
	// Read performs a load of the word at addr.
	Read(addr uint64) AccessOutcome
	// Write performs a store to the word at addr.
	Write(addr uint64) AccessOutcome
}

// InstrCache is an L1 instruction cache under some fault-tolerance
// scheme.
type InstrCache interface {
	Name() string
	// HitLatency is the cycle cost of a hit, scheme overhead included.
	// It is constant for the cache's lifetime: the cpu loop reads it
	// once per run.
	HitLatency() int
	// Fetch performs an instruction fetch of the word at addr.
	Fetch(addr uint64) AccessOutcome
}

// MemoryLatencyNS is the main-memory access latency in nanoseconds. It is
// fixed in wall-clock terms; the cycle cost therefore grows with core
// frequency (the L2, by contrast, is frequency-scaled with the core and
// costs a constant 10 cycles).
const MemoryLatencyNS = 60

// MemLatencyCycles converts the fixed memory latency to core cycles at
// the given frequency, rounding up.
func MemLatencyCycles(freqMHz float64) int {
	cycles := MemoryLatencyNS * freqMHz / 1e3
	n := int(cycles)
	if float64(n) < cycles {
		n++
	}
	if n < 1 {
		n = 1
	}
	return n
}

// WriteBufferEntries is the depth of the coalescing write buffer between
// the write-through L1D and the L2. The paper assumes such a buffer so
// that store traffic does not stall the core and stays constant across
// schemes; eight block-granularity entries is a typical embedded sizing.
const WriteBufferEntries = 8

// Lower is the memory system below a core's write buffer: it serves
// block-granularity demand reads and absorbs coalesced block writes.
// The default backend is the inline per-core L2-plus-memory model the
// paper describes; the event-driven hierarchy (package hier) swaps in a
// port-backed shim so every L1 scheme runs unchanged against a shared,
// contended L2 — schemes only ever see NextLevel.
type Lower interface {
	// ReadBlock performs a demand read of the block containing addr and
	// returns the observed latency in core cycles beyond the L1, plus
	// whether the L2 hit.
	ReadBlock(addr uint64) (latency int, l2Hit bool)
	// WriteBlock absorbs one coalesced block write. forRead marks a
	// drain forced by a demand read to the same block (write-buffer
	// forwarding): the contents must land so the read observes them,
	// but no bandwidth is charged — the data came from the buffer.
	WriteBlock(block uint64, forRead bool)
}

// NextLevel models everything above the Lower backend from the L1s'
// point of view: the coalescing write buffer and the demand/store
// traffic ledgers. Both L1 caches of a core reference one NextLevel.
type NextLevel struct {
	l2         *cache.Cache // inline L2 of the default backend; nil with a custom Lower
	lower      Lower
	memLatency int // cycles; 0 with a custom Lower

	demandReads uint64
	memReads    uint64
	wordWrites  uint64 // write-through store traffic in words
	drains      uint64 // block-granularity L2 writes after coalescing

	// Coalescing write buffer: FIFO of block addresses with pending
	// stores, oldest first in wb[:wbLen]. A store to a buffered block
	// merges for free. Entries shift in place, so the buffer never
	// allocates.
	wb    [WriteBufferEntries]uint64
	wbLen int
}

// l2Memory is the default Lower: the paper's private 512 KB write-back
// L2 over a fixed-cycle-latency memory.
type l2Memory struct {
	l2         *cache.Cache
	hitLatency int
	memLatency int
}

func (m *l2Memory) ReadBlock(addr uint64) (int, bool) {
	res := m.l2.Access(addr, false)
	latency := m.hitLatency
	if !res.Hit {
		latency += m.memLatency
		// A dirty victim writes back to memory off the critical path; it
		// costs bandwidth, not load-use latency.
	}
	return latency, res.Hit
}

func (m *l2Memory) WriteBlock(block uint64, _ bool) {
	m.l2.Access(block*cache.BlockBytes, true)
}

// NewNextLevel builds the paper's 512 KB/8-way/10-cycle write-back L2
// over a memory with the given latency in core cycles.
func NewNextLevel(memLatencyCycles int) *NextLevel {
	if memLatencyCycles < 1 {
		//lvlint:ignore nopanic documented constructor guard: latency is a static config decision, not runtime input
		panic(fmt.Sprintf("core: memory latency %d cycles must be >= 1", memLatencyCycles))
	}
	cfg := cache.L2Config()
	l2 := cache.MustNew(cfg)
	return &NextLevel{
		l2:         l2,
		lower:      &l2Memory{l2: l2, hitLatency: cfg.HitLatency, memLatency: memLatencyCycles},
		memLatency: memLatencyCycles,
	}
}

// NewNextLevelOver builds a NextLevel whose demand and drain traffic is
// served by the given backend instead of the inline L2 — the seam the
// event-driven hierarchy plugs its shared-L2 ports into. The write
// buffer and all traffic ledgers behave identically to NewNextLevel.
func NewNextLevelOver(lower Lower) *NextLevel {
	if lower == nil {
		//lvlint:ignore nopanic documented constructor guard: the backend is a static wiring decision, not runtime input
		panic("core: nil Lower backend")
	}
	return &NextLevel{lower: lower}
}

// L2 exposes the inline L2 simulator of the default backend (read-only
// use intended); nil when a custom Lower serves the traffic.
func (n *NextLevel) L2() *cache.Cache { return n.l2 }

// MemLatency returns the configured memory latency in cycles.
func (n *NextLevel) MemLatency() int { return n.memLatency }

// ReadBlock performs a demand read of addr's block: an L2 access, and a
// memory access beneath it on an L2 miss. A pending store to the same
// block in the write buffer drains first, so reads always observe the
// written data. It returns the latency beyond the L1 and whether the L2
// hit.
func (n *NextLevel) ReadBlock(addr uint64) (latency int, l2Hit bool) {
	block := cache.BlockAddr(addr)
	if i := n.wbFind(block); i >= 0 {
		n.wbRemove(i)
		n.drain(block, true)
	}
	n.demandReads++
	latency, l2Hit = n.lower.ReadBlock(addr)
	if !l2Hit {
		n.memReads++
	}
	return latency, l2Hit
}

// drain writes one buffered block into the backend; forRead marks the
// read-forced (forwarding) case.
func (n *NextLevel) drain(block uint64, forRead bool) {
	n.drains++
	n.lower.WriteBlock(block, forRead)
}

// WriteWord absorbs one word of write-through store traffic into the
// coalescing write buffer: stores to a buffered block merge for free;
// when the FIFO is full, the oldest block drains to the L2. Stores cost
// no core stall and do not perturb the demand-read statistics that
// Figure 11 reports.
func (n *NextLevel) WriteWord(addr uint64) {
	n.wordWrites++
	block := cache.BlockAddr(addr)
	if i := n.wbFind(block); i >= 0 {
		// Coalesce: refresh the entry's position (LRU-ish FIFO).
		n.wbRemove(i)
	} else if n.wbLen == WriteBufferEntries {
		oldest := n.wb[0]
		n.wbRemove(0)
		n.drain(oldest, false)
	}
	n.wb[n.wbLen] = block
	n.wbLen++
}

// wbFind returns the buffer position of block, or -1.
func (n *NextLevel) wbFind(block uint64) int {
	for i, b := range n.wb[:n.wbLen] {
		if b == block {
			return i
		}
	}
	return -1
}

// wbRemove deletes the entry at position i, keeping the rest in order.
func (n *NextLevel) wbRemove(i int) {
	copy(n.wb[i:n.wbLen], n.wb[i+1:n.wbLen])
	n.wbLen--
}

// DemandReads returns the number of demand read accesses sent below
// the L1s (Figure 11's numerator). Each ReadBlock issues exactly one,
// so for the default backend this equals the inline L2's read count.
func (n *NextLevel) DemandReads() uint64 { return n.demandReads }

// MemReads returns the number of reads that went past the L2 to memory.
func (n *NextLevel) MemReads() uint64 { return n.memReads }

// WordWrites returns the write-through store traffic in words (before
// coalescing).
func (n *NextLevel) WordWrites() uint64 { return n.wordWrites }

// BlockDrains returns the block-granularity L2 writes after coalescing;
// BlockDrains/WordWrites is the buffer's coalescing ratio.
func (n *NextLevel) BlockDrains() uint64 { return n.drains }

// Outcome helpers used by scheme implementations.

// HitOutcome is an L1 hit costing the given latency.
func HitOutcome(latency int) AccessOutcome {
	return AccessOutcome{Hit: true, Latency: latency}
}

// MissOutcome is an L1 miss: base latency plus next-level latency.
func MissOutcome(l1Latency int, next *NextLevel, addr uint64) AccessOutcome {
	lat, l2Hit := next.ReadBlock(addr)
	out := AccessOutcome{Latency: l1Latency + lat, L2Reads: 1}
	if !l2Hit {
		out.MemReads = 1
	}
	return out
}
