package ffw

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
	"repro/internal/inject"
)

// Options configure an FFW cache beyond its geometry.
type Options struct {
	// Placement selects the window placement policy (default: centered,
	// the paper's policy).
	Placement WindowPlacement
	// Scatter enables the non-contiguous extension: the stored pattern is
	// not constrained to a contiguous window. On a miss to an absent word
	// of a resident block, only the stored word farthest from the missed
	// word is replaced, so the stored set converges to exactly the words
	// the program uses. The paper's remap datapath (Figure 4) already
	// supports arbitrary patterns — rank-to-rank mapping doesn't care
	// about contiguity — but the paper evaluates contiguous windows only;
	// this is the obvious future-work variant, exposed for the ablation
	// benchmarks.
	Scatter bool
	// TrackData, when true, stores real word values in the physical data
	// array and services reads through the remap datapath, so tests can
	// verify the Figure 4 logic end-to-end. Timing simulations leave it
	// off.
	TrackData bool
	// Backing supplies the memory image when TrackData is set: the value
	// of every word address. Defaults to a deterministic hash of the
	// address.
	Backing func(wordAddr uint64) uint32
	// Injector, when non-nil, attaches the runtime fault-injection layer:
	// the cache advances the injector once per access and runs a
	// parity-style check on every window hit (see Read for the
	// detection/recovery ladder). Nil reproduces the static-fault-map
	// behaviour bit for bit.
	Injector *inject.Injector
}

// Cache is an L1 data cache protected by fault-free windows. It
// implements core.DataCache. Its tag array is a cache.Cache whose frame
// fault masks are the FMAP; frames with no fault-free entry (k = 0) are
// disabled ways.
type Cache struct {
	tags cache.Cache
	lat  int
	next *core.NextLevel
	opts Options
	fm   *faultmap.Map    // manufacturing fault map (read-only)
	inj  *inject.Injector // runtime fault layer (nil = static faults only)

	stored []uint8 // StoredPattern per frame: bit w set = logical word w in the window
	// wordAge holds each frame's per-word last-use ticks, used only by
	// the scatter extension's LRU word replacement (nil without Scatter).
	wordAge [][WordsPerBlock]uint64
	data    []uint32          // physical data array, frame*WordsPerBlock + entry (TrackData)
	written map[uint64]uint32 // write-through image of stored words (TrackData)
	tick    uint64            // access clock: drives the injector and the word ages

	stats  Stats
	fstats inject.Stats // detection/recovery counters (injector attached)
}

// Stats counts FFW-specific events beyond the generic cache statistics.
type Stats struct {
	Reads      uint64
	Writes     uint64
	ReadHits   uint64
	WriteHits  uint64 // stores that found their word in a window
	WindowMiss uint64 // tag hit but requested word outside the window
	TagMiss    uint64 // no matching tag in the set
	Refills    uint64 // windows (re)filled from the next level
	Disabled   uint64 // accesses that found every candidate frame unusable (k = 0)
}

// New builds an FFW cache with the paper's L1 geometry over the given
// fault map (one bit per physical data-array word) and next level.
func New(fm *faultmap.Map, next *core.NextLevel, opts Options) (*Cache, error) {
	cfg := cache.L1Config("L1D-FFW")
	if fm.Words() != cfg.Words() {
		return nil, fmt.Errorf("ffw: fault map covers %d words, cache has %d", fm.Words(), cfg.Words())
	}
	if next == nil {
		return nil, fmt.Errorf("ffw: nil next level")
	}
	c := &Cache{
		tags: *cache.MustNew(cfg), lat: cfg.HitLatency, next: next, opts: opts, fm: fm, inj: opts.Injector,
		stored: make([]uint8, cfg.Blocks()),
	}
	// Load the FMAP array: per-frame fault pattern from the fault map.
	for f := range c.stored {
		c.tags.SetFault(f, fm.BlockMask(f))
		if FaultFreeEntries(fm.BlockMask(f)) == 0 {
			c.tags.DisableFrame(f)
		}
	}
	if opts.Scatter {
		c.wordAge = make([][WordsPerBlock]uint64, cfg.Blocks())
	}
	if opts.TrackData {
		c.data = make([]uint32, cfg.Words())
		c.written = make(map[uint64]uint32)
		if c.opts.Backing == nil {
			c.opts.Backing = DefaultBacking
		}
	}
	return c, nil
}

// backingValue returns the architected value of a word: the write-through
// image if the word has been stored to, else the initial backing image.
func (c *Cache) backingValue(wordAddr uint64) uint32 {
	if v, ok := c.written[wordAddr]; ok {
		return v
	}
	return c.opts.Backing(wordAddr)
}

// DefaultBacking is the default memory image when data tracking is on: a
// cheap deterministic mix of the word address.
func DefaultBacking(wordAddr uint64) uint32 {
	x := wordAddr*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	return uint32(x>>32) ^ uint32(x)
}

// Name implements core.DataCache.
func (c *Cache) Name() string { return "FFW" }

// HitLatency implements core.DataCache: FFW adds zero cycles to the hit
// path (Figure 9 — the pattern lookup is shorter than the data array's
// row-to-column-MUX path).
func (c *Cache) HitLatency() int { return c.lat }

// Stats returns the FFW event counters.
func (c *Cache) Stats() Stats { return c.stats }

// FaultStats returns the runtime-injection counters: the injector's
// event counts merged with the cache's detection/recovery counters.
// Zero when no injector is attached.
func (c *Cache) FaultStats() inject.Stats {
	s := c.fstats
	if c.inj != nil {
		s.Add(c.inj.InjectedStats())
	}
	return s
}

// StoredPattern returns the stored pattern of frame (set, way), for
// inspection in tests and reports.
func (c *Cache) StoredPattern(set, way int) uint8 { return c.stored[set*c.tags.Config().Ways+way] }

// FaultPattern returns the FMAP entry of frame (set, way).
func (c *Cache) FaultPattern(set, way int) uint8 { return c.tags.Fault(set*c.tags.Config().Ways + way) }

// holds reports whether frame f (-1 for none) holds logical word w in
// its window.
func (c *Cache) holds(f, w int) bool { return f >= 0 && c.stored[f]&(1<<uint(w)) != 0 }

// entry returns the physical word index (FrameWordIndex coordinates)
// that logical word w of frame f is remapped to.
func (c *Cache) entry(f, w int) int { return f*WordsPerBlock + Remap(c.stored[f], c.tags.Fault(f), w) }

// use makes word w of frame f the most recently used.
func (c *Cache) use(f, w int) {
	c.tags.Touch(f)
	if c.wordAge != nil {
		c.wordAge[f][w] = c.tick
	}
}

// refill installs a window covering the requested word into frame f,
// scattering the window's words into fault-free entries. sameBlock
// reports a window miss on a resident block (tag hit): the scatter
// extension then swaps a single word instead of repositioning the whole
// window.
func (c *Cache) refill(f int, addr uint64, sameBlock bool) {
	word := cache.WordInBlock(addr)
	c.stats.Refills++
	if c.opts.Scatter && sameBlock && c.stored[f] != 0 {
		c.stored[f] = SwapLRU(c.stored[f], word, &c.wordAge[f])
	} else {
		c.tags.Fill(f, addr)
		c.stored[f] = Window(FaultFreeEntries(c.tags.Fault(f)), word, c.opts.Placement)
		if c.wordAge != nil {
			c.wordAge[f] = [WordsPerBlock]uint64{}
		}
	}
	c.use(f, word)
	if c.data != nil {
		base := cache.BlockAddr(addr) * cache.WordsPerBlock
		for w := 0; w < WordsPerBlock; w++ {
			if c.holds(f, w) {
				c.data[c.entry(f, w)] = c.backingValue(base + uint64(w))
			}
		}
	}
}

// effectiveFault returns frame f's current fault pattern: the
// manufacturing map OR'd with any injected intermittent/permanent
// faults. The manufacturing map itself is never mutated.
func (c *Cache) effectiveFault(f int) uint8 {
	m := c.fm.BlockMask(f)
	if c.inj != nil {
		m |= c.inj.BlockMask(f)
	}
	return m
}

// disable takes frame f, left with no fault-free entry, out of service.
func (c *Cache) disable(f int) {
	c.tags.DisableFrame(f)
	c.stored[f] = 0
	c.fstats.DisabledLines++
}

// Read implements core.DataCache. A hit requires both a tag match and the
// requested word being inside the stored window; otherwise the block is
// fetched from the next level and the window recenters on the missing
// word. The missing word is forwarded to the CPU before the window
// update, so the update adds no latency (it is on the miss path).
//
// With a runtime injector attached, every window hit runs a parity-style
// check on the physical entry being read. Detection escalates:
//
//  1. transient flip — retry the access once; the retry reads clean
//     data, at the cost of one extra hit latency (still a hit).
//  2. intermittent/permanent fault — refetch the block from the next
//     level, fold the injected faults into the frame's FMAP entry, and
//     re-center the window over the remaining fault-free entries
//     (rebuilding the remap).
//  3. no fault-free entries left — the frame is disabled (capacity
//     degradation); data is still correct, served from below.
func (c *Cache) Read(addr uint64) core.AccessOutcome {
	c.tick++
	if c.inj != nil {
		c.inj.Advance(c.tick)
	}
	c.stats.Reads++
	f, word := c.tags.Find(addr), cache.WordInBlock(addr)
	if c.holds(f, word) {
		if c.inj != nil {
			if sticky := c.inj.FaultyWord(c.entry(f, word)); sticky || c.inj.TransientNow() {
				return c.recoverHit(f, addr, sticky)
			}
		}
		c.use(f, word)
		c.stats.ReadHits++
		return core.HitOutcome(c.lat)
	}
	out := core.MissOutcome(c.lat, c.next, addr)
	if f >= 0 {
		// Window miss: refill this frame, recentered.
		c.stats.WindowMiss++
		c.refill(f, addr, true)
		return out
	}
	c.stats.TagMiss++
	c.allocate(addr)
	return out
}

// allocate picks a victim frame and refills it, re-validating each
// candidate's fault pattern against the injector first: a frame whose
// effective pattern has no fault-free entries left is disabled and the
// next victim tried. Each retry disables a frame, so the loop ends
// within the way count.
func (c *Cache) allocate(addr uint64) {
	for {
		f := c.tags.Victim(addr)
		if f < 0 {
			c.stats.Disabled++
			return
		}
		if c.inj != nil {
			if m := c.effectiveFault(f); m != c.tags.Fault(f) {
				c.tags.SetFault(f, m)
				if FaultFreeEntries(m) == 0 {
					c.disable(f)
					continue
				}
			}
		}
		c.refill(f, addr, false)
		return
	}
}

// recoverHit handles a detected fault on a window hit in frame f. sticky
// reports whether the physical entry is under an intermittent/permanent
// fault (as opposed to a one-access transient flip).
func (c *Cache) recoverHit(f int, addr uint64, sticky bool) core.AccessOutcome {
	c.fstats.Detected++
	if !sticky {
		// Transient: the retry reads clean data — still a hit, one extra
		// access of latency.
		c.fstats.CorrectedRetry++
		c.fstats.RecoveryCycles += uint64(c.lat)
		c.use(f, cache.WordInBlock(addr))
		c.stats.ReadHits++
		return core.HitOutcome(2 * c.lat)
	}
	// Sticky fault: refetch the block from below and rebuild the window
	// over the surviving fault-free entries.
	out := core.MissOutcome(c.lat, c.next, addr)
	c.fstats.RecoveryCycles += uint64(out.Latency - c.lat)
	mask := c.effectiveFault(f)
	c.tags.SetFault(f, mask)
	if FaultFreeEntries(mask) == 0 {
		// Unrecoverable: take the frame out of service.
		c.fstats.Uncorrected++
		c.disable(f)
		return out
	}
	c.fstats.CorrectedRefetch++
	c.refill(f, addr, false)
	return out
}

// ReadWord is Read plus the data value, available when TrackData is set.
// The value is served through the remap datapath on a hit and from the
// backing image on a miss (the forwarded fill data).
func (c *Cache) ReadWord(addr uint64) (core.AccessOutcome, uint32) {
	if c.data == nil {
		//lvlint:ignore nopanic documented API-misuse guard: calling a data-path method on a timing-only cache is a wiring bug
		panic("ffw: ReadWord requires Options.TrackData")
	}
	var fromArray *uint32
	if f, word := c.tags.Find(addr), cache.WordInBlock(addr); c.holds(f, word) {
		fromArray = &c.data[c.entry(f, word)]
	}
	out := c.Read(addr)
	if fromArray != nil {
		return out, *fromArray
	}
	return out, c.backingValue(cache.WordAddr(addr))
}

// Write implements core.DataCache. The cache is write-through with no
// write allocate: the store always goes to the write buffer; if the word
// is present in a window the copy is updated in place, otherwise nothing
// is allocated ("accesses to the missing words can be treated as normal
// cache misses" applies to loads; stores simply bypass).
func (c *Cache) Write(addr uint64) core.AccessOutcome {
	c.tick++
	if c.inj != nil {
		// Writes advance the fault clock but need no detection: the cache
		// is write-through, so the architected value is always safe below
		// and a corrupted in-window copy is caught by the next read.
		c.inj.Advance(c.tick)
	}
	c.stats.Writes++
	c.next.WriteWord(addr)
	if f, word := c.tags.Find(addr), cache.WordInBlock(addr); c.holds(f, word) {
		c.use(f, word)
		c.stats.WriteHits++
		return core.HitOutcome(c.lat)
	}
	return core.AccessOutcome{Latency: c.lat}
}

// WriteWord is Write with a data value, available when TrackData is set.
// The write-through image retains the value, so it survives window moves
// and evictions (the property that lets FFW discard words freely).
func (c *Cache) WriteWord(addr uint64, v uint32) core.AccessOutcome {
	if c.data == nil {
		//lvlint:ignore nopanic documented API-misuse guard: calling a data-path method on a timing-only cache is a wiring bug
		panic("ffw: WriteWord requires Options.TrackData")
	}
	c.written[cache.WordAddr(addr)] = v
	if f, word := c.tags.Find(addr), cache.WordInBlock(addr); c.holds(f, word) {
		c.data[c.entry(f, word)] = v
	}
	return c.Write(addr)
}
