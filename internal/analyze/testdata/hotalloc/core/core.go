// Package core mimics the memory-system plumbing below L1: the import
// path ends in "core", so hotalloc's package scoping applies.
package core

const entries = 8

// sliceBuffer is a coalescing write buffer kept as a slice: every
// reslice-and-append on the store path can reallocate.
type sliceBuffer struct {
	wb []uint64
}

// Bad: removing an entry by appending the tail onto the head inside
// the search loop, and re-appending it at the back.
func (s *sliceBuffer) write(block uint64) {
	for i, b := range s.wb {
		if b == block {
			s.wb = append(append(s.wb[:i], s.wb[i+1:]...), block) // want "append inside"
			return
		}
	}
	if len(s.wb) >= entries {
		s.wb = s.wb[1:]
	}
	s.wb = append(s.wb, block)
}

// arrayBuffer keeps the same FIFO in a fixed array plus a count.
type arrayBuffer struct {
	wb [entries]uint64
	n  int
}

// Good: entries shift in place with copy; nothing allocates.
func (a *arrayBuffer) write(block uint64) {
	for i, b := range a.wb[:a.n] {
		if b == block {
			copy(a.wb[i:a.n], a.wb[i+1:a.n])
			a.wb[a.n-1] = block
			return
		}
	}
	if a.n == entries {
		copy(a.wb[:], a.wb[1:])
		a.n--
	}
	a.wb[a.n] = block
	a.n++
}
