package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestGeometryHelpers(t *testing.T) {
	cfg := L1Config("L1D")
	if got := cfg.Sets(); got != 256 {
		t.Errorf("Sets = %d, want 256", got)
	}
	if got := cfg.Blocks(); got != 1024 {
		t.Errorf("Blocks = %d, want 1024", got)
	}
	if got := cfg.Words(); got != 8192 {
		t.Errorf("Words = %d, want 8192", got)
	}
	l2 := L2Config()
	if got := l2.Sets(); got != 2048 {
		t.Errorf("L2 Sets = %d, want 2048", got)
	}
	if l2.HitLatency != 10 || l2.WritePolicy != WriteBack {
		t.Errorf("L2Config = %+v", l2)
	}
}

func TestAddressDecomposition(t *testing.T) {
	g := L1Config("L1D").Geometry()
	tests := []struct {
		addr  uint64
		block uint64
		word  int
		set   int
		tag   uint64
	}{
		{0x0000, 0, 0, 0, 0},
		{0x001C, 0, 7, 0, 0},
		{0x0020, 1, 0, 1, 0},
		{0x2004, 0x100, 1, 0, 1}, // block 256 wraps to set 0, tag 1
		{0xFFFFC, 0x7FFF, 7, 255, 127},
	}
	for _, tt := range tests {
		if got := BlockAddr(tt.addr); got != tt.block {
			t.Errorf("BlockAddr(%#x) = %d, want %d", tt.addr, got, tt.block)
		}
		if got := WordInBlock(tt.addr); got != tt.word {
			t.Errorf("WordInBlock(%#x) = %d, want %d", tt.addr, got, tt.word)
		}
		if got := g.Index(tt.addr); got != tt.set {
			t.Errorf("Index(%#x) = %d, want %d", tt.addr, got, tt.set)
		}
		if got := g.Tag(tt.addr); got != tt.tag {
			t.Errorf("Tag(%#x) = %d, want %d", tt.addr, got, tt.tag)
		}
	}
}

func TestAddressRoundTripProperty(t *testing.T) {
	cfg := L1Config("L1")
	g := cfg.Geometry()
	f := func(addr uint64) bool {
		set, tag := g.Index(addr), g.Tag(addr)
		// Reconstruct the block address from (tag, set).
		block := tag*uint64(cfg.Sets()) + uint64(set)
		return block == BlockAddr(addr) && set >= 0 && set < cfg.Sets()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{Name: "neg", SizeBytes: -32, Ways: 1},
		{Name: "unaligned", SizeBytes: 100, Ways: 1},
		{Name: "zero ways", SizeBytes: 1024, Ways: 0},
		{Name: "indivisible", SizeBytes: 96, Ways: 2}, // 3 blocks, 2 ways
		{Name: "non-pow2 sets", SizeBytes: 96, Ways: 1},
		{Name: "neg lat", SizeBytes: 1024, Ways: 2, HitLatency: -1},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%q) should fail", cfg.Name)
		}
	}
	if err := L1Config("ok").Validate(); err != nil {
		t.Errorf("L1Config invalid: %v", err)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Config{SizeBytes: 100, Ways: 1}); err == nil {
		t.Error("New should reject invalid config")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid config")
		}
	}()
	MustNew(Config{SizeBytes: 100, Ways: 1})
}

func TestBasicHitMiss(t *testing.T) {
	c := MustNew(L1Config("L1D"))
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("cold access should miss")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Error("second access should hit")
	}
	if r := c.Access(0x1004, false); !r.Hit {
		t.Error("same-block access should hit")
	}
	st := c.Stats()
	if st.Reads != 3 || st.ReadHits != 2 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way tiny cache: 4 blocks, 2 sets.
	cfg := Config{Name: "tiny", SizeBytes: 128, Ways: 2, WritePolicy: WriteBack}
	c := MustNew(cfg)
	// Three distinct blocks mapping to set 0 (sets=2, so stride 64).
	a, b, d := uint64(0), uint64(64), uint64(128)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	r := c.Access(d, false)
	if !r.Evicted {
		t.Fatal("third block should evict")
	}
	if !c.Probe(a) {
		t.Error("MRU block a was evicted; LRU policy broken")
	}
	if c.Probe(b) {
		t.Error("LRU block b should have been evicted")
	}
}

func TestWriteThroughNoWriteAllocate(t *testing.T) {
	c := MustNew(L1Config("L1D"))
	r := c.Access(0x40, true)
	if r.Hit || r.Filled {
		t.Errorf("write miss must not allocate in write-through: %+v", r)
	}
	if c.Probe(0x40) {
		t.Error("block allocated on write miss")
	}
	// After a read fill, writes hit.
	c.Access(0x40, false)
	if r := c.Access(0x44, true); !r.Hit {
		t.Error("write to resident block should hit")
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	cfg := Config{Name: "wb", SizeBytes: 64, Ways: 1, WritePolicy: WriteBack}
	c := MustNew(cfg) // 2 sets, 1 way
	c.Access(0, true) // allocate + dirty
	if c.Stats().Fills != 1 {
		t.Fatal("write-back should write-allocate")
	}
	r := c.Access(64, false) // same set, evicts dirty block
	if !r.Evicted || !r.WroteBack {
		t.Errorf("expected dirty eviction, got %+v", r)
	}
	if c.Stats().WriteBacks != 1 {
		t.Errorf("WriteBacks = %d, want 1", c.Stats().WriteBacks)
	}
	// Clean eviction does not write back.
	r = c.Access(128, false)
	if !r.Evicted || r.WroteBack {
		t.Errorf("expected clean eviction, got %+v", r)
	}
}

func TestProbeDoesNotDisturb(t *testing.T) {
	c := MustNew(L1Config("L1I"))
	c.Access(0, false)
	before := c.Stats()
	if !c.Probe(0) || c.Probe(0x8000) {
		t.Error("Probe wrong")
	}
	if c.Stats() != before {
		t.Error("Probe changed stats")
	}
}

func TestFlushInvalidatesAll(t *testing.T) {
	c := MustNew(L1Config("L1I"))
	c.Access(0, false)
	c.Access(0x40, false)
	c.Flush()
	if c.Probe(0) || c.Probe(0x40) {
		t.Error("Flush left residents")
	}
	if c.Stats().Invalidates != 2 {
		t.Errorf("Invalidates = %d, want 2", c.Stats().Invalidates)
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(L1Config("L1D"))
	c.Access(0, false)
	if !c.Invalidate(0) {
		t.Error("Invalidate of resident should report true")
	}
	if c.Invalidate(0) {
		t.Error("Invalidate of absent should report false")
	}
	if c.Probe(0) {
		t.Error("block still resident after Invalidate")
	}
}

func TestDirectMappedMode(t *testing.T) {
	c := MustNew(L1Config("L1I"))
	c.SetMode(DirectMapped)
	if c.Mode() != DirectMapped {
		t.Fatal("mode not switched")
	}
	cfg := c.Config()
	// Two blocks with the same set index but different DM ways must
	// coexist (they'd conflict only in a true DM cache of Sets() blocks).
	a := uint64(0)                       // block 0: set 0, DM way 0
	b := uint64(cfg.Sets() * BlockBytes) // block 256: set 0, DM way 1
	c.Access(a, false)
	c.Access(b, false)
	if !c.Probe(a) || !c.Probe(b) {
		t.Error("blocks in distinct DM ways must coexist")
	}
	// A block with the same DM slot must evict, regardless of LRU.
	d := uint64(cfg.Blocks() * BlockBytes) // block 1024: set 0, DM way 0, different tag
	c.Access(a, false)                     // make a MRU
	r := c.Access(d, false)
	if !r.Evicted {
		t.Error("DM conflict must evict")
	}
	if c.Probe(a) {
		t.Error("DM mode must evict the conflicting slot even if MRU")
	}
	if !c.Probe(b) {
		t.Error("unrelated DM slot was disturbed")
	}
}

func TestDMSlotBijectionProperty(t *testing.T) {
	// In DM mode, (set, DMWay) must be a bijection of block mod Blocks().
	cfg := L1Config("L1I")
	g := cfg.Geometry()
	f := func(blockRaw uint32) bool {
		block := uint64(blockRaw)
		addr := block * BlockBytes
		slot := int(BlockAddr(addr) % uint64(cfg.Blocks()))
		set, way := g.Index(addr), g.DMWay(addr)
		return slot == int(block)%cfg.Blocks() && set == slot%cfg.Sets() && way == slot/cfg.Sets()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetModeFlushes(t *testing.T) {
	c := MustNew(L1Config("L1I"))
	c.Access(0, false)
	c.SetMode(DirectMapped)
	if c.Probe(0) {
		t.Error("mode switch must invalidate contents")
	}
	// Switching to the same mode is a no-op (no flush).
	c.Access(0, false)
	c.SetMode(DirectMapped)
	if !c.Probe(0) {
		t.Error("same-mode SetMode must not flush")
	}
}

func TestFrameWordIndex(t *testing.T) {
	cfg := L1Config("L1D")
	g := cfg.Geometry()
	if got := g.FrameWordIndex(0, 0, 0); got != 0 {
		t.Errorf("FrameWordIndex(0,0,0) = %d", got)
	}
	if got := g.FrameWordIndex(0, 1, 0); got != 8 {
		t.Errorf("FrameWordIndex(0,1,0) = %d, want 8", got)
	}
	if got := g.FrameWordIndex(1, 0, 3); got != 4*8+3 {
		t.Errorf("FrameWordIndex(1,0,3) = %d, want 35", got)
	}
	last := g.FrameWordIndex(cfg.Sets()-1, cfg.Ways-1, WordsPerBlock-1)
	if last != cfg.Words()-1 {
		t.Errorf("last frame word = %d, want %d", last, cfg.Words()-1)
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Reads: 10, Writes: 5, ReadHits: 8, WriteHits: 3}
	if s.Misses() != 4 || s.ReadMisses() != 2 || s.Accesses() != 15 {
		t.Errorf("derived stats wrong: %+v", s)
	}
	if got, want := s.HitRate(), 11.0/15.0; got != want {
		t.Errorf("HitRate = %v, want %v", got, want)
	}
	if (Stats{}).HitRate() != 0 {
		t.Error("idle HitRate should be 0")
	}
}

func TestStringers(t *testing.T) {
	if WriteThrough.String() != "write-through" || WriteBack.String() != "write-back" {
		t.Error("WritePolicy.String broken")
	}
	if WritePolicy(9).String() != "WritePolicy(9)" {
		t.Error("unknown WritePolicy.String broken")
	}
	if SetAssociative.String() != "set-associative" || DirectMapped.String() != "direct-mapped" {
		t.Error("Mode.String broken")
	}
	if Mode(5).String() != "Mode(5)" {
		t.Error("unknown Mode.String broken")
	}
}

func TestInclusionUnderRepeatedAccess(t *testing.T) {
	// Property: a block accessed twice in a row is always resident after,
	// in both modes.
	for _, mode := range []Mode{SetAssociative, DirectMapped} {
		c := MustNew(L1Config("L1I"))
		c.SetMode(mode)
		f := func(block uint32) bool {
			addr := uint64(block) * BlockBytes
			c.Access(addr, false)
			c.Access(addr, false)
			return c.Probe(addr)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("mode %v: %v", mode, err)
		}
	}
}

func TestPLRUValidation(t *testing.T) {
	cfg := Config{Name: "p", SizeBytes: 96, Ways: 3, Replacement: ReplacePLRU}
	if err := cfg.Validate(); err == nil {
		t.Error("PLRU with 3 ways must be rejected")
	}
	bad := L1Config("r")
	bad.Replacement = Replacement(9)
	if err := bad.Validate(); err == nil {
		t.Error("unknown replacement must be rejected")
	}
}

func TestPLRUNeverEvictsMostRecent(t *testing.T) {
	cfg := L1Config("plru")
	cfg.Replacement = ReplacePLRU
	c := MustNew(cfg)
	stride := uint64(cfg.Sets() * BlockBytes)
	// Fill all 4 ways of set 0, then alternate: the line touched
	// immediately before each miss must survive.
	for i := uint64(0); i < 4; i++ {
		c.Access(i*stride, false)
	}
	for i := uint64(4); i < 40; i++ {
		mru := (i - 1) * stride
		c.Access(mru, false) // touch previous block: now protected
		c.Access(i*stride, false)
		if !c.Probe(mru) {
			t.Fatalf("PLRU evicted the most recently used line at step %d", i)
		}
	}
}

func TestPLRUApproximatesLRU(t *testing.T) {
	// On random traffic over a 2x-capacity working set, PLRU's hit rate
	// should be within a few points of true LRU.
	run := func(r Replacement) float64 {
		cfg := L1Config("x")
		cfg.Replacement = r
		c := MustNew(cfg)
		seed := uint64(12345)
		hits, total := 0, 0
		for i := 0; i < 200_000; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			block := (seed >> 33) % 2048 // 64 KB working set
			if c.Access(block*BlockBytes, false).Hit {
				hits++
			}
			total++
		}
		return float64(hits) / float64(total)
	}
	lru, plru, fifo := run(ReplaceLRU), run(ReplacePLRU), run(ReplaceFIFO)
	if diff := lru - plru; diff < -0.03 || diff > 0.03 {
		t.Errorf("PLRU hit rate %.4f too far from LRU %.4f", plru, lru)
	}
	// FIFO is a sanity bound: no better than LRU on this traffic.
	if fifo > lru+0.01 {
		t.Errorf("FIFO (%.4f) should not beat LRU (%.4f)", fifo, lru)
	}
}

func TestFIFOCyclesThroughWays(t *testing.T) {
	cfg := L1Config("fifo")
	cfg.Replacement = ReplaceFIFO
	c := MustNew(cfg)
	stride := uint64(cfg.Sets() * BlockBytes)
	for i := uint64(0); i < 4; i++ {
		c.Access(i*stride, false)
	}
	// Heavily touch block 3 (would protect it under LRU), then insert
	// two new blocks: FIFO evicts in fill order (0 then 1) regardless.
	for i := 0; i < 10; i++ {
		c.Access(3*stride, false)
	}
	c.Access(4*stride, false)
	if c.Probe(0) {
		t.Error("FIFO should have evicted the first-filled block")
	}
	c.Access(5*stride, false)
	if c.Probe(1 * stride) {
		t.Error("FIFO should have evicted the second-filled block")
	}
	if !c.Probe(3 * stride) {
		t.Error("block 3 should still be resident (filled later)")
	}
}

func TestReplacementString(t *testing.T) {
	if ReplaceLRU.String() != "lru" || ReplacePLRU.String() != "plru" || ReplaceFIFO.String() != "fifo" {
		t.Error("Replacement.String broken")
	}
	if Replacement(7).String() != "Replacement(7)" {
		t.Error("unknown Replacement.String broken")
	}
}

// TestGeometryMatchesDivision checks the precomputed shift/mask
// arithmetic against the division formulas it replaces, on power-of-two
// and non-power-of-two way counts.
func TestGeometryMatchesDivision(t *testing.T) {
	cfgs := []Config{
		L1Config("L1"),
		L2Config(),
		{Name: "3way", SizeBytes: 6 * 1024, Ways: 3, HitLatency: 1},
		{Name: "1way", SizeBytes: 4 * 1024, Ways: 1, HitLatency: 1},
	}
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		g := cfg.Geometry()
		sets, ways, words := uint64(cfg.Sets()), uint64(cfg.Ways), uint64(cfg.Words())
		for i := 0; i < 20000; i++ {
			addr := rng.Uint64()
			if i%2 == 0 {
				addr >>= rng.Intn(64)
			}
			block := addr / BlockBytes
			set, tag := int(block%sets), block/sets
			way := int(tag % ways)
			if got := g.Index(addr); got != set {
				t.Fatalf("%s: Index(%#x) = %d, want %d", cfg.Name, addr, got, set)
			}
			if got := g.Tag(addr); got != tag {
				t.Fatalf("%s: Tag(%#x) = %d, want %d", cfg.Name, addr, got, tag)
			}
			if got := g.DMWay(addr); got != way {
				t.Fatalf("%s: DMWay(%#x) = %d, want %d", cfg.Name, addr, got, way)
			}
			if got, want := g.ImagePos(addr), int(addr/WordBytes%words); got != want {
				t.Fatalf("%s: ImagePos(%#x) = %d, want %d", cfg.Name, addr, got, want)
			}
			word := rng.Intn(WordsPerBlock)
			if got, want := g.FrameWordIndex(set, way, word), (set*cfg.Ways+way)*WordsPerBlock+word; got != want {
				t.Fatalf("%s: FrameWordIndex(%d,%d,%d) = %d, want %d", cfg.Name, set, way, word, got, want)
			}
			pos := rng.Intn(cfg.Words())
			slot := pos / WordsPerBlock
			want := (slot%cfg.Sets()*cfg.Ways+slot/cfg.Sets())*WordsPerBlock + pos%WordsPerBlock
			if got := g.DMImageWordIndex(pos); got != want {
				t.Fatalf("%s: DMImageWordIndex(%d) = %d, want %d", cfg.Name, pos, got, want)
			}
			if cg := cfg.Geometry(); cg.Index(addr) != set || cg.Tag(addr) != tag || cg.DMWay(addr) != way || cg.DMImageWordIndex(pos) != want {
				t.Fatalf("%s: a fresh Config.Geometry disagrees with the hoisted one at %#x/%d", cfg.Name, addr, pos)
			}
		}
	}
}

func TestDMImageWordIndexIsPermutation(t *testing.T) {
	cfg := L1Config("L1I")
	g, words := cfg.Geometry(), cfg.Words()
	seen := make([]bool, words)
	for i := 0; i < words; i++ {
		p := g.DMImageWordIndex(i)
		if p < 0 || p >= words {
			t.Fatalf("DMImageWordIndex(%d) = %d, outside [0, %d)", i, p, words)
		}
		if seen[p] {
			t.Fatalf("DMImageWordIndex(%d) = %d, already taken", i, p)
		}
		seen[p] = true
	}
}
