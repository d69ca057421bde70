// Package ffw implements the Fault-Free Window data cache (Section IV-A):
// the paper's hardware mechanism for L1 data caches at deep voltage.
//
// Each physical frame may contain defective word entries (recorded in the
// FMAP array, loaded from the fault map of the current DVFS operating
// point). Instead of disabling the whole frame, the frame holds a
// contiguous *window* of the logical block's words, scattered into the
// fault-free entries. A per-line stored pattern (the StoredPattern array)
// records which logical words are present; word-remapping logic converts
// a logical word offset to the physical entry index. Accesses to words
// outside the window are treated as normal cache misses, and the window
// recenters on the missing word at each refill — exploiting the
// observation (Figure 3) that most applications have low spatial locality
// and high word reuse, so a partial block captures the likely accesses.
//
// The stored-pattern/fault-pattern lookup runs in parallel with the data
// array and is shorter than the data array's row-to-column-MUX path
// (Figure 9), so FFW adds zero cycles to the hit path.
//
// The tag array is a cache.Cache whose frame fault masks are the FMAP;
// the stored patterns sit beside it, one per frame. Frames with no
// fault-free entry are disabled ways, at construction and whenever the
// runtime injector empties them.
package ffw

import (
	"fmt"
	"math/bits"
)

// WordsPerBlock is the number of 32-bit words per 32 B block.
const WordsPerBlock = 8

// Rank returns the number of stored logical words strictly below word w —
// the position of w within the window (valid only when w is stored).
func Rank(stored uint8, w int) int {
	return bits.OnesCount8(stored & (1<<uint(w) - 1))
}

// NthFaultFree returns the index of the (n+1)-th fault-free physical
// entry given the frame's fault mask (bit set = defective), or -1 when
// fewer than n+1 entries are fault-free.
func NthFaultFree(fault uint8, n int) int {
	free := ^fault
	for e := 0; e < WordsPerBlock; e++ {
		if free&(1<<uint(e)) == 0 {
			continue
		}
		if n == 0 {
			return e
		}
		n--
	}
	return -1
}

// Remap implements the word-remapping logic of Figure 4: the logical word
// offset w is converted to the physical entry holding it, given the
// line's stored pattern and fault pattern. It returns -1 when w is not in
// the window (the access is a miss) or when the patterns are inconsistent.
//
// Worked example from the paper: stored pattern 01111100 (words 2..6
// present), word offset 0x3 is the second word of the window, which lives
// in the second fault-free entry of the frame.
func Remap(stored, fault uint8, w int) int {
	if w < 0 || w >= WordsPerBlock || stored&(1<<uint(w)) == 0 {
		return -1
	}
	return NthFaultFree(fault, Rank(stored, w))
}

// WindowPlacement selects where a refilled window is positioned within
// the logical block.
type WindowPlacement int

const (
	// PlacementCentered puts the requested (missing) word in the middle
	// of the new window — the paper's update policy ("we let the missing
	// word stand in the middle of the new fault-free window").
	PlacementCentered WindowPlacement = iota
	// PlacementFirstK stores the first k contiguous words of the block
	// when they cover the requested word (Figure 5's default pattern),
	// falling back to centered placement otherwise so the demand word is
	// always captured.
	PlacementFirstK
)

// String implements fmt.Stringer.
func (p WindowPlacement) String() string {
	switch p {
	case PlacementCentered:
		return "centered"
	case PlacementFirstK:
		return "first-k"
	default:
		return fmt.Sprintf("WindowPlacement(%d)", int(p))
	}
}

// Window returns the stored pattern for a window of k contiguous logical
// words covering the requested word, under the given placement policy.
// k is clamped to [0, 8]; k == 0 yields an empty pattern (a frame with no
// fault-free entries holds nothing).
func Window(k int, requested int, placement WindowPlacement) uint8 {
	if k <= 0 {
		return 0
	}
	if k >= WordsPerBlock {
		return 0xFF
	}
	run := uint8(1<<uint(k) - 1)
	if placement == PlacementFirstK && requested < k {
		return run
	}
	start := requested - k/2
	if start < 0 {
		start = 0
	}
	if start > WordsPerBlock-k {
		start = WordsPerBlock - k
	}
	return run << uint(start)
}

// FaultFreeEntries returns the number of fault-free word entries in a
// frame with the given fault mask.
func FaultFreeEntries(fault uint8) int {
	return WordsPerBlock - bits.OnesCount8(fault)
}

// SwapLRU returns the stored pattern with the least-recently-used stored
// word evicted and word's bit set — the scatter extension's single-word
// replacement policy. ages[w] is the last-use timestamp of stored word w
// (hardware would keep a few-bit age per entry; the simulator keeps exact
// ticks). Ties break toward the lower word. If word is already stored,
// the pattern is returned unchanged.
func SwapLRU(stored uint8, word int, ages *[WordsPerBlock]uint64) uint8 {
	if stored&(1<<uint(word)) != 0 {
		return stored
	}
	victim := -1
	oldest := ^uint64(0)
	for w := 0; w < WordsPerBlock; w++ {
		if stored&(1<<uint(w)) == 0 {
			continue
		}
		if ages[w] < oldest {
			victim, oldest = w, ages[w]
		}
	}
	if victim < 0 {
		return 1 << uint(word)
	}
	return (stored &^ (1 << uint(victim))) | 1<<uint(word)
}
