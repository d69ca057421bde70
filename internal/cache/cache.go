// Package cache implements the set-associative tag array that underlies
// every cache model in the paper: address/geometry arithmetic, true-LRU
// replacement (tree pseudo-LRU and FIFO for the replacement ablation),
// write-through and write-back policies, and the dynamic set-associative
// ↔ direct-mapped mode switch (DAC-style [27]) that BBR's instruction
// cache uses in low-voltage mode.
//
// It is the only tag array in the repository. Frames are numbered
// set-major (frame = set*Ways + way); each carries a fault mask of its
// defective word entries and can be taken out of service, and both
// survive every flush and invalidation. The L1 schemes are built on it:
// the word-disable caches program the masks and call Lookup, FFW keeps
// its window patterns beside the frames and drives them through Find,
// Victim, Fill and Touch, and BBR disables frames that go bad at
// runtime. The simulator tracks tags and replacement state only; data
// payloads are modelled where a scheme needs them (package ffw stores
// real bytes to verify word remapping end-to-end). All caches are
// physically indexed and word-addressed per the paper: 4 B words, 32 B
// blocks.
package cache

import (
	"fmt"
	"math/bits"
)

// Word and block geometry fixed by the paper (Table I).
const (
	WordBytes      = 4
	BlockBytes     = 32
	WordsPerBlock  = BlockBytes / WordBytes
	wordShift      = 2
	blockShift     = 5
	wordInBlockMsk = WordsPerBlock - 1
)

// WritePolicy selects the behaviour of stores.
type WritePolicy int

const (
	// WriteThrough propagates every store to the next level (the paper's
	// L1 data cache; a coalescing write buffer is assumed, so this
	// traffic is constant across schemes).
	WriteThrough WritePolicy = iota
	// WriteBack marks lines dirty and writes them out on eviction (the
	// paper's unified L2).
	WriteBack
)

// String implements fmt.Stringer.
func (p WritePolicy) String() string {
	switch p {
	case WriteThrough:
		return "write-through"
	case WriteBack:
		return "write-back"
	default:
		return fmt.Sprintf("WritePolicy(%d)", int(p))
	}
}

// Mode selects how lookups map addresses to frames.
type Mode int

const (
	// SetAssociative is the normal high-voltage mode.
	SetAssociative Mode = iota
	// DirectMapped implements direct-mapped accesses on top of the
	// set-associative arrays: the least-significant tag bits explicitly
	// select the way within the indexed set, giving software direct
	// control over cache placement (required by BBR).
	DirectMapped
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case SetAssociative:
		return "set-associative"
	case DirectMapped:
		return "direct-mapped"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Replacement selects the victim policy.
type Replacement int

const (
	// ReplaceLRU is true least-recently-used (the paper's Table I policy
	// and the default).
	ReplaceLRU Replacement = iota
	// ReplacePLRU is tree pseudo-LRU: one bit per internal node of a
	// binary tree over the ways — what 45 nm hardware actually builds,
	// since true LRU state grows as ways·log(ways). Requires a
	// power-of-two way count.
	ReplacePLRU
	// ReplaceFIFO evicts in fill order, ignoring reuse.
	ReplaceFIFO
)

// String implements fmt.Stringer.
func (r Replacement) String() string {
	switch r {
	case ReplaceLRU:
		return "lru"
	case ReplacePLRU:
		return "plru"
	case ReplaceFIFO:
		return "fifo"
	default:
		return fmt.Sprintf("Replacement(%d)", int(r))
	}
}

// Config describes a cache organization.
type Config struct {
	Name        string
	SizeBytes   int
	Ways        int
	HitLatency  int // cycles for a hit, before any scheme overhead
	WritePolicy WritePolicy
	Replacement Replacement
}

// L1Config is the paper's 32 KB, 4-way, 32 B-block, 2-cycle L1
// organization (Table I); the data cache is write-through, the
// instruction cache read-only (write policy unused).
func L1Config(name string) Config {
	return Config{Name: name, SizeBytes: 32 * 1024, Ways: 4, HitLatency: 2, WritePolicy: WriteThrough}
}

// L2Config is the paper's 512 KB, 8-way, 32 B-block, 10-cycle write-back
// unified L2 (Table I).
func L2Config() Config {
	return Config{Name: "L2", SizeBytes: 512 * 1024, Ways: 8, HitLatency: 10, WritePolicy: WriteBack}
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes%BlockBytes != 0:
		return fmt.Errorf("cache %q: size %d is not a positive multiple of %d", c.Name, c.SizeBytes, BlockBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache %q: ways %d must be positive", c.Name, c.Ways)
	case c.Blocks()%c.Ways != 0:
		return fmt.Errorf("cache %q: %d blocks not divisible by %d ways", c.Name, c.Blocks(), c.Ways)
	case bits.OnesCount(uint(c.Sets())) != 1:
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, c.Sets())
	case c.HitLatency < 0:
		return fmt.Errorf("cache %q: negative hit latency", c.Name)
	case c.Replacement == ReplacePLRU && bits.OnesCount(uint(c.Ways)) != 1:
		return fmt.Errorf("cache %q: pseudo-LRU needs a power-of-two way count, got %d", c.Name, c.Ways)
	case c.Replacement < ReplaceLRU || c.Replacement > ReplaceFIFO:
		return fmt.Errorf("cache %q: unknown replacement policy %d", c.Name, c.Replacement)
	}
	return nil
}

// Blocks returns the total number of block frames.
func (c Config) Blocks() int { return c.SizeBytes / BlockBytes }

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Blocks() / c.Ways }

// Words returns the total number of data words, the size of the cache's
// fault map.
func (c Config) Words() int { return c.SizeBytes / WordBytes }

// BlockAddr returns the block number of a byte address.
func BlockAddr(addr uint64) uint64 { return addr >> blockShift }

// WordInBlock returns the word offset (0..7) of a byte address within its
// block.
func WordInBlock(addr uint64) int { return int(addr>>wordShift) & wordInBlockMsk }

// WordAddr returns the global word number of a byte address.
func WordAddr(addr uint64) uint64 { return addr >> wordShift }

// Geometry is a configuration's address arithmetic with every constant
// precomputed: the per-access layers build one when they are constructed
// and never divide by the set count again. Validate requires a
// power-of-two set count, so the set index and tag are a mask and a
// shift; the way count and the word count fall back to a modulus when
// they are not powers of two. A Geometry built from a configuration
// that fails Validate gives unspecified results.
type Geometry struct {
	setShift  uint
	setMask   uint64
	ways      int
	wayMask   uint64 // ways-1; used only when wayPow2
	wayPow2   bool
	words     int
	wordMask  uint64 // words-1; used only when wordsPow2
	wordsPow2 bool
}

// Geometry returns the precomputed address arithmetic of c.
func (c Config) Geometry() Geometry {
	sets, words := c.Sets(), c.Words()
	return Geometry{
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		setMask:   uint64(sets - 1),
		ways:      c.Ways,
		wayMask:   uint64(c.Ways - 1),
		wayPow2:   bits.OnesCount(uint(c.Ways)) == 1,
		words:     words,
		wordMask:  uint64(words - 1),
		wordsPow2: bits.OnesCount(uint(words)) == 1,
	}
}

// Index returns the set index of addr.
func (g Geometry) Index(addr uint64) int { return int(BlockAddr(addr) & g.setMask) }

// Tag returns the tag of addr.
func (g Geometry) Tag(addr uint64) uint64 { return BlockAddr(addr) >> g.setShift }

// DMWay returns the way that the least-significant tag bits select in
// direct-mapped mode.
func (g Geometry) DMWay(addr uint64) int {
	if g.wayPow2 {
		return int(g.Tag(addr) & g.wayMask)
	}
	return int(g.Tag(addr) % uint64(g.ways))
}

// FrameWordIndex returns the index into the cache's physical word array
// (and fault map) of word `word` of the frame at (set, way). Frames are
// laid out set-major: frame = set*Ways + way.
func (g Geometry) FrameWordIndex(set, way, word int) int {
	return (set*g.ways+way)*WordsPerBlock + word
}

// DMImageWordIndex maps a position in the direct-mapped linear image of
// the cache (word i of the image, i in [0, Words())) to the physical word
// index in FrameWordIndex coordinates. In direct-mapped mode a block
// address B occupies image slot B mod Blocks(), whose physical frame is
// (set = slot mod Sets(), way = slot / Sets()); the BBR linker scans the
// image linearly, so it needs this permutation to consult the physical
// fault map.
func (g Geometry) DMImageWordIndex(i int) int {
	slot := i / WordsPerBlock
	word := i % WordsPerBlock
	set, way := int(uint64(slot)&g.setMask), int(uint64(slot)>>g.setShift)
	return g.FrameWordIndex(set, way, word)
}

// ImagePos returns the direct-mapped image position (in [0, Words()))
// of the word at byte address addr: its word address modulo the cache
// size in words.
func (g Geometry) ImagePos(addr uint64) int {
	if g.wordsPow2 {
		return int(WordAddr(addr) & g.wordMask)
	}
	return int(WordAddr(addr) % uint64(g.words))
}

// Stats counts cache events.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadHits    uint64
	WriteHits   uint64
	Fills       uint64 // blocks brought in from the next level
	Evictions   uint64 // valid blocks displaced
	WriteBacks  uint64 // dirty blocks written to the next level
	Invalidates uint64 // lines discarded by Flush/Invalidate
	Disables    uint64 // frames taken out of service by DisableFrame
}

// Misses returns total read+write misses.
func (s Stats) Misses() uint64 { return s.Reads + s.Writes - s.ReadHits - s.WriteHits }

// ReadMisses returns demand read misses.
func (s Stats) ReadMisses() uint64 { return s.Reads - s.ReadHits }

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// HitRate returns the fraction of accesses that hit (0 when idle).
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.ReadHits+s.WriteHits) / float64(a)
}

// line is one frame: its tag state plus the fault mask of the word
// entries it supplies. The mask belongs to the hardware, not to the
// block held, so every state change keeps it.
type line struct {
	tag      uint64
	lru      uint64 // larger = more recently used
	valid    bool
	dirty    bool
	disabled bool  // frame out of service; never holds data again
	fault    uint8 // bit e set = word entry e defective
}

// Cache is a tag-array simulator for one cache level. Its frames are
// numbered set-major, frame = set*Ways + way, and each carries a fault
// mask that the fault-tolerant L1 schemes program and read.
type Cache struct {
	cfg   Config
	geo   Geometry
	mode  Mode
	lines []line   // Sets() x Ways, set-major
	plru  []uint32 // per-set tree bits (ReplacePLRU)
	fifo  []uint32 // per-set next-victim pointer (ReplaceFIFO)
	stats Stats
	tick  uint64
}

// New constructs a cache; the configuration must validate.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, geo: cfg.Geometry(), lines: make([]line, cfg.Blocks())}
	switch cfg.Replacement {
	case ReplacePLRU:
		c.plru = make([]uint32, cfg.Sets())
	case ReplaceFIFO:
		c.fifo = make([]uint32, cfg.Sets())
	case ReplaceLRU:
		// True LRU keeps per-line ages in the line array itself.
	}
	return c, nil
}

// MustNew is New for statically known-good configurations; it panics on
// error.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Mode returns the current lookup mode.
func (c *Cache) Mode() Mode { return c.mode }

// SetMode switches between set-associative and direct-mapped lookup.
// Following the paper, the switch happens on a DVFS transition with all
// contents invalidated ("when the processor switches to low voltage mode,
// all cache contents are invalidated and the cache is configured as
// direct-mapped"), so residency never carries across modes.
func (c *Cache) SetMode(m Mode) {
	if m != c.mode {
		c.Flush()
		c.mode = m
	}
}

// Stats returns a snapshot of the event counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the event counters without touching contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Flush invalidates every line (counting each valid line) and discards
// dirty data. The paper flushes BBR caches on every downward voltage
// transition; write-back callers needing the dirty lines should drain via
// Stats before flushing — the simulator does not model flush-writeback
// traffic because mode switches are rare enough to be ignorable (§IV-B).
// Disabled frames and fault masks model the hardware and survive.
func (c *Cache) Flush() {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid {
			c.stats.Invalidates++
		}
		*l = line{disabled: l.disabled, fault: l.fault}
	}
}

// DisableFrame takes frame permanently out of service: the resident
// block, if any, is invalidated and the frame is never filled again
// (capacity degradation from an unrecoverable fault). The fault mask is
// kept. Out-of-range and already-disabled frames are no-ops.
func (c *Cache) DisableFrame(frame int) {
	if frame < 0 || frame >= len(c.lines) || c.lines[frame].disabled {
		return
	}
	l := &c.lines[frame]
	if l.valid {
		c.stats.Invalidates++
	}
	*l = line{disabled: true, fault: l.fault}
	c.stats.Disables++
}

// FrameDisabled reports whether frame is out of service.
func (c *Cache) FrameDisabled(frame int) bool {
	return frame >= 0 && frame < len(c.lines) && c.lines[frame].disabled
}

// DisabledFrames returns the number of frames currently out of service.
func (c *Cache) DisabledFrames() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].disabled {
			n++
		}
	}
	return n
}

// Fault returns frame's fault mask: bit e set = word entry e defective.
func (c *Cache) Fault(frame int) uint8 { return c.lines[frame].fault }

// SetFault programs frame's fault mask.
func (c *Cache) SetFault(frame int, mask uint8) { c.lines[frame].fault = mask }

// frames returns the first frame number and the frames that can hold
// addr's block: its set, or in direct-mapped mode the one frame of the
// set that the least-significant tag bits select.
func (c *Cache) frames(addr uint64) (int, []line) {
	base := c.geo.Index(addr) * c.cfg.Ways
	if c.mode == DirectMapped {
		base += c.geo.DMWay(addr)
		return base, c.lines[base : base+1]
	}
	return base, c.lines[base : base+c.cfg.Ways]
}

// lookup returns the index in set of the valid line holding tag, or -1.
func lookup(set []line, tag uint64) int {
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return i
		}
	}
	return -1
}

// victim returns the index in set of its first invalid in-service line,
// else of its least recently used in-service line, or -1 when every
// line is disabled.
func victim(set []line) int {
	best, bestLRU := -1, ^uint64(0)
	for i := range set {
		switch l := &set[i]; {
		case l.disabled:
		case !l.valid:
			return i
		case l.lru < bestLRU:
			best, bestLRU = i, l.lru
		}
	}
	return best
}

// Find returns the frame holding addr's block, or -1, without disturbing
// replacement state or statistics.
func (c *Cache) Find(addr uint64) int {
	base, set := c.frames(addr)
	if i := lookup(set, c.geo.Tag(addr)); i >= 0 {
		return base + i
	}
	return -1
}

// Probe reports whether addr is resident without disturbing replacement
// state or statistics.
func (c *Cache) Probe(addr uint64) bool { return c.Find(addr) >= 0 }

// Victim returns the frame a miss on addr fills, or -1 when none of its
// candidate frames is in service (direct-mapped target disabled, or an
// entire set out of service): the access is then served from below
// without a fill. Under FIFO replacement it advances the set's pointer.
func (c *Cache) Victim(addr uint64) int { return c.victim(c.frames(addr)) }

// victim picks among set, whose first frame is base.
func (c *Cache) victim(base int, set []line) int {
	if c.cfg.Replacement != ReplaceLRU && len(set) > 1 {
		return c.policyVictim(base, set)
	}
	if i := victim(set); i >= 0 {
		return base + i
	}
	return -1
}

// policyVictim is the PLRU/FIFO victim choice: a free in-service frame,
// else the policy's pick, stepped past disabled ways.
func (c *Cache) policyVictim(base int, set []line) int {
	for i := range set {
		if !set[i].disabled && !set[i].valid {
			return base + i
		}
	}
	s, v := base/len(set), 0
	if c.plru != nil {
		v = c.plruVictim(s)
	} else {
		v = int(c.fifo[s]) % len(set)
		c.fifo[s]++
	}
	// PLRU/FIFO state is oblivious to disabled frames; deterministically
	// redirect to the next in-service way.
	for i := range set {
		if w := (v + i) % len(set); !set[w].disabled {
			return base + w
		}
	}
	return -1
}

// Touch makes frame the most recently used of its set.
func (c *Cache) Touch(frame int) {
	c.tick++
	c.touch(frame)
}

// Fill installs addr's block in frame (from Victim, or a frame whose
// block is being replaced) as the most recently used, keeping the
// frame's fault mask. It counts no statistics.
func (c *Cache) Fill(frame int, addr uint64) {
	c.tick++
	c.fill(frame, c.geo.Tag(addr), false)
}

func (c *Cache) touch(frame int) {
	c.lines[frame].lru = c.tick
	if c.plru != nil {
		c.plruTouch(frame)
	}
}

func (c *Cache) fill(frame int, tag uint64, dirty bool) {
	c.lines[frame] = line{tag: tag, valid: true, dirty: dirty, fault: c.lines[frame].fault}
	c.touch(frame)
}

// plruVictim walks the tree toward the pseudo-least-recent way: at each
// internal node, bit 0 means "left half is older".
func (c *Cache) plruVictim(set int) int {
	node, lo, span := 0, 0, c.cfg.Ways
	bits := c.plru[set]
	for span > 1 {
		span /= 2
		if bits&(1<<uint(node)) == 0 {
			node = 2*node + 1 // descend left
		} else {
			lo += span
			node = 2*node + 2 // descend right
		}
	}
	return lo
}

// plruTouch flips the tree bits along frame's path to point away from
// it.
func (c *Cache) plruTouch(frame int) {
	set, way := frame/c.cfg.Ways, frame%c.cfg.Ways
	node, lo, span := 0, 0, c.cfg.Ways
	bits := c.plru[set]
	for span > 1 {
		span /= 2
		if way < lo+span {
			bits |= 1 << uint(node) // way is in the left half: point right
			node = 2*node + 1
		} else {
			bits &^= 1 << uint(node)
			lo += span
			node = 2*node + 2
		}
	}
	c.plru[set] = bits
}

// Result describes what one access did.
type Result struct {
	Hit       bool
	Filled    bool // a block was brought in
	Evicted   bool // a valid block was displaced
	WroteBack bool // the displaced block was dirty (write-back only)
}

// Access performs a read (write=false) or write (write=true) of addr,
// allocating on miss. It returns what happened; the caller charges
// next-level latency and traffic based on Result.Filled/WroteBack.
//
// Write-through caches do not allocate on write misses
// (no-write-allocate) and never hold dirty data, matching the paper's L1
// data cache; write-back caches allocate on both kinds of miss.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.tick++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	base, set := c.frames(addr)
	tag := c.geo.Tag(addr)
	writeBack := c.cfg.WritePolicy == WriteBack
	if i := lookup(set, tag); i >= 0 {
		c.touch(base + i)
		if write {
			c.stats.WriteHits++
			if writeBack {
				set[i].dirty = true
			}
		} else {
			c.stats.ReadHits++
		}
		return Result{Hit: true}
	}
	if write && !writeBack {
		// No-write-allocate: the store goes straight to the next level.
		return Result{}
	}
	f := c.victim(base, set)
	if f < 0 {
		// Every candidate frame is disabled: serve from below, no fill.
		return Result{}
	}
	res := Result{Filled: true}
	if l := &c.lines[f]; l.valid {
		res.Evicted = true
		c.stats.Evictions++
		if l.dirty {
			res.WroteBack = true
			c.stats.WriteBacks++
		}
	}
	c.fill(f, tag, write) // a write that gets here is write-back
	c.stats.Fills++
	return res
}

// Lookup is one access to a fault-masked array (the word-disable L1s):
// it finds addr's block and makes it the most recently used or, on a
// miss with allocate, fills the victim frame, keeping that frame's
// fault mask. A hit refreshes recency whether or not allocate is set. It
// returns whether the tag hit and the fault mask of the frame hit or
// filled, all ones when there is none. It counts no statistics.
func (c *Cache) Lookup(addr uint64, allocate bool) (hit bool, fault uint8) {
	c.tick++
	base, set := c.frames(addr)
	tag := c.geo.Tag(addr)
	if i := lookup(set, tag); i >= 0 {
		c.touch(base + i)
		return true, set[i].fault
	}
	if !allocate {
		return false, 0xFF
	}
	f := c.victim(base, set)
	if f < 0 {
		return false, 0xFF
	}
	c.fill(f, tag, false)
	return false, c.lines[f].fault
}

// Invalidate drops addr's block if resident, returning whether it was.
// The frame's fault mask is kept.
func (c *Cache) Invalidate(addr uint64) bool {
	f := c.Find(addr)
	if f < 0 {
		return false
	}
	c.lines[f] = line{fault: c.lines[f].fault}
	c.stats.Invalidates++
	return true
}
