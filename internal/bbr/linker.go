package bbr

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/faultmap"
	"repro/internal/program"
)

// Placement is the result of linking: a fault-aware address for every
// basic block. It implements program.Layout.
type Placement struct {
	addrs []uint64

	// CodeWords is the total footprint of all placed blocks.
	CodeWords int
	// GapWords is the address space skipped to align blocks onto
	// fault-free chunks — the linker's "gaps among basic blocks".
	GapWords int
	// Laps counts how many times placement wrapped around the cache
	// image; laps > 1 means fault-free chunks are shared by multiple
	// blocks, which introduces direct-mapped conflicts (§IV-B(1)).
	Laps int
}

// BlockAddr implements program.Layout.
func (pl *Placement) BlockAddr(b program.BlockID) uint64 { return pl.addrs[b] }

// ErrUnplaceable is wrapped by Link when some block fits no fault-free
// chunk anywhere in the cache — a BBR yield failure at this fault map.
var ErrUnplaceable = fmt.Errorf("bbr: block fits no fault-free chunk")

// Link implements Algorithm 1: MATCH(BB, FMAP, memAddr, csize). It walks
// the blocks in program order, keeping a global memory pointer; for each
// block it advances the pointer until the block's image in the
// direct-mapped cache (cacheAddr = memAddr mod csize, wrapping at the
// cache boundary) is an entirely fault-free run, then places the block
// and moves the pointer past it.
//
// baseAddr is the starting byte address (word-aligned); fm is the
// instruction cache's word-granularity fault map. Blocks whose footprint
// exceeds the largest fault-free run (with wrap) fail with
// ErrUnplaceable.
func Link(p *program.Program, fm *faultmap.Map, baseAddr uint64) (*Placement, error) {
	if baseAddr%4 != 0 {
		return nil, fmt.Errorf("bbr: base address %#x not word-aligned", baseAddr)
	}
	cfg := cache.L1Config("L1I")
	if fm.Words() != cfg.Words() {
		return nil, fmt.Errorf("bbr: fault map covers %d words, instruction cache has %d", fm.Words(), cfg.Words())
	}
	csize := fm.Words()
	geo := cfg.Geometry()

	// Precompute, for every position of the direct-mapped image, the
	// length of the fault-free run starting there, allowing a single wrap
	// around the cache boundary (capped at csize). runs[i] == 0 iff image
	// position i is defective. The image is a permutation of the physical
	// word array (see cache.Geometry.DMImageWordIndex).
	runs := runLengthsWithWrap(csize, func(i int) bool {
		return fm.Defective(geo.DMImageWordIndex(i))
	})
	maxRun := 0
	for _, r := range runs {
		if r > maxRun {
			maxRun = r
		}
	}

	pl := &Placement{addrs: make([]uint64, len(p.Blocks))}
	memWord := baseAddr / 4
	for i := range p.Blocks {
		fp := p.Blocks[i].Footprint()
		if fp > maxRun {
			return nil, fmt.Errorf("%w: block %d needs %d words, largest chunk is %d", ErrUnplaceable, i, fp, maxRun)
		}
		skipped := 0
		for runs[memWord%uint64(csize)] < fp {
			memWord++
			skipped++
			if skipped > csize {
				// Cannot happen given the maxRun check, but guards
				// against an inconsistent runs table.
				return nil, fmt.Errorf("%w: block %d found no chunk in a full lap", ErrUnplaceable, i)
			}
		}
		pl.addrs[i] = memWord * 4
		pl.GapWords += skipped
		memWord += uint64(fp)
		pl.CodeWords += fp
	}
	pl.Laps = int((memWord - baseAddr/4 + uint64(csize) - 1) / uint64(csize))
	return pl, nil
}

// runLengthsWithWrap computes, for each of n positions, the length of the
// defect-free run starting there, continuing across the end boundary into
// the start (a block's contiguous memory image wraps modulo the cache
// size). Runs are capped at n.
func runLengthsWithWrap(n int, defective func(int) bool) []int {
	runs := make([]int, n)
	// Backward pass without wrap.
	for w := n - 1; w >= 0; w-- {
		if defective(w) {
			runs[w] = 0
			continue
		}
		if w == n-1 {
			runs[w] = 1
		} else {
			runs[w] = runs[w+1] + 1
		}
	}
	// Extend tail runs across the wrap by the length of the head run.
	head := runs[0]
	if head == 0 {
		return runs
	}
	if head == n {
		// Entirely fault-free: every run is the full cache.
		for w := range runs {
			runs[w] = n
		}
		return runs
	}
	for w := n - 1; w >= 0 && runs[w] == n-w; w-- {
		runs[w] += head
		if runs[w] > n {
			runs[w] = n
		}
	}
	return runs
}

// PlacedWords returns the physical word indices (FrameWordIndex
// coordinates, directly usable with the fault map) occupied by block b
// under the placement, in address order — used by tests and invariant
// checks to assert no defective word is ever occupied by code.
func (pl *Placement) PlacedWords(p *program.Program, b program.BlockID) []int {
	geo := cache.L1Config("L1I").Geometry()
	fp := p.Blocks[b].Footprint()
	out := make([]int, fp)
	start := pl.addrs[b]
	for k := 0; k < fp; k++ {
		out[k] = geo.DMImageWordIndex(geo.ImagePos(start + uint64(4*k)))
	}
	return out
}

// LinkBestFit is an ablation alternative to Algorithm 1: instead of the
// paper's first-fit scan from a global pointer, each block is placed into
// the *smallest* currently-free chunk that fits (classic best-fit bin
// packing). Better packing means fewer gap words and fewer laps — at the
// cost of a linker that must track free chunks instead of one pointer,
// and of losing Algorithm 1's property that program order maps to
// roughly-sequential addresses (which costs locality in the DM image).
// The ablation benchmark quantifies the trade.
func LinkBestFit(p *program.Program, fm *faultmap.Map, baseAddr uint64) (*Placement, error) {
	if baseAddr%4 != 0 {
		return nil, fmt.Errorf("bbr: base address %#x not word-aligned", baseAddr)
	}
	cfg := cache.L1Config("L1I")
	if fm.Words() != cfg.Words() {
		return nil, fmt.Errorf("bbr: fault map covers %d words, instruction cache has %d", fm.Words(), cfg.Words())
	}
	csize := fm.Words()

	// Free chunks of the DM image, maintained as a simple slice (the
	// cache has at most ~1600 chunks; linear scans are fine).
	type free struct{ start, length int }
	var chunks []free
	start := -1
	geo := cfg.Geometry()
	defective := func(i int) bool { return fm.Defective(geo.DMImageWordIndex(i)) }
	for i := 0; i <= csize; i++ {
		if i < csize && !defective(i) {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			chunks = append(chunks, free{start, i - start}) //lvlint:ignore hotalloc link-time work that runs once per program image, not per cache access
			start = -1
		}
	}

	pl := &Placement{addrs: make([]uint64, len(p.Blocks))}
	lap := uint64(0) // best-fit reuses image positions by advancing laps
	for i := range p.Blocks {
		fp := p.Blocks[i].Footprint()
		best := -1
		for ci, c := range chunks {
			if c.length < fp {
				continue
			}
			if best < 0 || c.length < chunks[best].length {
				best = ci
			}
		}
		if best < 0 {
			// All remaining chunks too small: start a new lap with a
			// fresh copy of the chunk list (sharing, as Algorithm 1
			// wraps). Rebuild and retry once; a block bigger than every
			// chunk is unplaceable.
			lap++
			chunks = chunks[:0]
			start = -1
			for j := 0; j <= csize; j++ {
				if j < csize && !defective(j) {
					if start < 0 {
						start = j
					}
					continue
				}
				if start >= 0 {
					chunks = append(chunks, free{start, j - start}) //lvlint:ignore hotalloc link-time work that runs once per program image, not per cache access
					start = -1
				}
			}
			for ci, c := range chunks {
				if c.length < fp {
					continue
				}
				if best < 0 || c.length < chunks[best].length {
					best = ci
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("%w: block %d needs %d words", ErrUnplaceable, i, fp)
			}
		}
		c := chunks[best]
		pl.addrs[i] = baseAddr + (lap*uint64(csize)+uint64(c.start))*4
		pl.CodeWords += fp
		if c.length == fp {
			chunks = append(chunks[:best], chunks[best+1:]...) //lvlint:ignore hotalloc link-time work that runs once per program image, not per cache access
		} else {
			chunks[best] = free{c.start + fp, c.length - fp}
		}
	}
	// Gap accounting: free words left unusable on completed laps.
	if lap > 0 {
		totalFree := 0
		for i := 0; i < csize; i++ {
			if !defective(i) {
				totalFree++
			}
		}
		pl.GapWords = int(lap)*totalFree - pl.CodeWords
		if pl.GapWords < 0 {
			pl.GapWords = 0
		}
	} else {
		// Single lap: gaps are the skipped free words below the highest
		// placed address — approximate as zero, since best-fit does not
		// consume address space linearly.
		pl.GapWords = 0
	}
	pl.Laps = int(lap) + 1
	return pl, nil
}
