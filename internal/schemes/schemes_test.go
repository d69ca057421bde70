package schemes

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
)

const l1Words = 32 * 1024 / 4

func next(t *testing.T) *core.NextLevel {
	t.Helper()
	return core.NewNextLevel(100)
}

func cleanMap() *faultmap.Map { return faultmap.New(l1Words) }

// mapAt400 is a fault map at the paper's deepest point (Pfail 1e-2).
func mapAt400(seed int64) *faultmap.Map {
	return faultmap.Generate(l1Words, 1e-2, rand.New(rand.NewSource(seed)))
}

func TestPlainVariants(t *testing.T) {
	n := next(t)
	tests := []struct {
		c    *Plain
		name string
		lat  int
	}{
		{NewDefectFree(n), "DefectFree", 2},
		{NewConventional(n), "Conventional", 2},
		{New8T(n), "8T", 3},
	}
	for _, tt := range tests {
		if tt.c.Name() != tt.name || tt.c.HitLatency() != tt.lat {
			t.Errorf("%s: name=%q lat=%d", tt.name, tt.c.Name(), tt.c.HitLatency())
		}
	}
}

func TestPlainReadWriteFetch(t *testing.T) {
	n := next(t)
	p := NewDefectFree(n)
	if out := p.Read(0x100); out.Hit {
		t.Error("cold read hit")
	}
	if out := p.Read(0x104); !out.Hit || out.Latency != 2 {
		t.Errorf("warm read = %+v", out)
	}
	if out := p.Fetch(0x104); !out.Hit {
		t.Error("fetch should share Read path")
	}
	if out := p.Write(0x200); out.Hit {
		t.Error("write miss should not hit (no write allocate)")
	}
	if n.WordWrites() != 1 {
		t.Error("write-through traffic missing")
	}
}

func Test8TExtraCycleVisible(t *testing.T) {
	n := next(t)
	c := New8T(n)
	c.Read(0x40)
	if out := c.Read(0x40); out.Latency != 3 {
		t.Errorf("8T hit latency = %d, want 3", out.Latency)
	}
}

func TestSimpleWdisCleanMapBehavesNormally(t *testing.T) {
	s, err := NewSimpleWdis(cleanMap(), next(t))
	if err != nil {
		t.Fatal(err)
	}
	s.Read(0x40)
	if out := s.Read(0x40); !out.Hit || out.Latency != 2 {
		t.Errorf("warm read = %+v (wdis adds no latency)", out)
	}
}

func TestSimpleWdisDefectiveWordAlwaysMisses(t *testing.T) {
	fm := cleanMap()
	// Frame (set 0, way 0..3): make word 3 defective in every way of set
	// 0, so address word 3 of set 0 can never be cached.
	cfg := cache.L1Config("x")
	for way := 0; way < 4; way++ {
		fm.SetDefective(cfg.Geometry().FrameWordIndex(0, way, 3), true)
	}
	n := next(t)
	s, err := NewSimpleWdis(fm, n)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(3 * 4) // set 0, word 3
	for i := 0; i < 5; i++ {
		if out := s.Read(addr); out.Hit {
			t.Fatalf("read %d of a defective word hit", i)
		}
	}
	if got := n.DemandReads(); got != 5 {
		t.Errorf("L2 reads = %d, want 5 (every access is an L2 trip)", got)
	}
	// The line was filled by the very first (tag-miss) read, so the
	// fault-free word 1 of the same block hits.
	if out := s.Read(uint64(4)); !out.Hit {
		t.Error("fault-free word of the resident line should hit")
	}
	st := s.Stats()
	if st.DefectMisses != 5 {
		t.Errorf("DefectMisses = %d, want 5", st.DefectMisses)
	}
}

func TestSimpleWdisNeighbourWordsStillHit(t *testing.T) {
	fm := cleanMap()
	cfg := cache.L1Config("x")
	for way := 0; way < 4; way++ {
		fm.SetDefective(cfg.Geometry().FrameWordIndex(0, way, 3), true)
	}
	s, _ := NewSimpleWdis(fm, next(t))
	s.Read(0x0C) // word 3: defective; fills the line
	if out := s.Read(0x04); !out.Hit {
		t.Error("fault-free word of a resident line must hit")
	}
}

func TestWilkersonPlusBasics(t *testing.T) {
	w, err := NewWilkersonPlus(cleanMap(), next(t))
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "Wilkerson+" || w.HitLatency() != 3 {
		t.Errorf("name=%q lat=%d", w.Name(), w.HitLatency())
	}
	w.Read(0x40)
	if out := w.Read(0x40); !out.Hit || out.Latency != 3 {
		t.Errorf("warm read = %+v", out)
	}
}

func TestWilkersonHalvedAssociativity(t *testing.T) {
	w, _ := NewWilkersonPlus(cleanMap(), next(t))
	// Three distinct blocks in one set: only 2 logical ways, so the third
	// fill evicts the LRU.
	stride := uint64(256 * 32)
	w.Read(0)
	w.Read(stride)
	w.Read(0) // 0 is MRU
	w.Read(2 * stride)
	if out := w.Read(0); !out.Hit {
		t.Error("MRU line evicted")
	}
	if out := w.Read(stride); out.Hit {
		t.Error("LRU line should have been evicted (capacity halved)")
	}
}

func TestWilkersonSlotNeedsBothEntriesDefective(t *testing.T) {
	cfg := cache.L1Config("x")
	fm := cleanMap()
	// Word 2 defective in frame (0,0) only: slot still usable via (0,1).
	fm.SetDefective(cfg.Geometry().FrameWordIndex(0, 0, 2), true)
	w, _ := NewWilkersonPlus(fm, next(t))
	addr := uint64(2 * 4)
	w.Read(addr)
	if out := w.Read(addr); !out.Hit {
		t.Error("slot with one good physical entry must hit")
	}
	// Now both entries defective: slot dead, every access is an L2 trip.
	fm2 := cleanMap()
	fm2.SetDefective(cfg.Geometry().FrameWordIndex(0, 0, 2), true)
	fm2.SetDefective(cfg.Geometry().FrameWordIndex(0, 1, 2), true)
	n := next(t)
	w2, _ := NewWilkersonPlus(fm2, n)
	w2.Read(addr)
	w2.Read(addr)
	// Both logical ways in set 0: logical way 0 = frames 0,1 (dead slot),
	// logical way 1 = frames 2,3 (fine). The first fill may land in
	// either; if it landed in the dead way, accesses miss. Drive enough
	// traffic to occupy both logical ways with distinct tags.
	if Coverable(fm2) {
		t.Error("fault map with a dead slot must not be coverable by plain Wilkerson")
	}
	if !Coverable(fm) {
		t.Error("a slot with one good physical entry keeps the map coverable")
	}
}

func TestCoverable(t *testing.T) {
	if !Coverable(cleanMap()) {
		t.Error("clean map must be coverable")
	}
	if Coverable(faultmap.New(100)) {
		t.Error("wrong-size map must report not coverable")
	}
	// At 400 mV plain Wilkerson essentially never covers: slot-death
	// probability per slot is pword² ≈ 0.076, with 8192 slots.
	if Coverable(mapAt400(1)) {
		t.Error("400 mV map should not be coverable by plain Wilkerson")
	}
}

func TestFBADefectiveWordServedByBuffer(t *testing.T) {
	cfg := cache.L1Config("x")
	fm := cleanMap()
	for way := 0; way < 4; way++ {
		fm.SetDefective(cfg.Geometry().FrameWordIndex(0, way, 5), true)
	}
	n := next(t)
	f, err := NewFBA(fm, n, 64)
	if err != nil {
		t.Fatal(err)
	}
	addr := uint64(5 * 4)
	out := f.Read(addr)
	if out.Hit {
		t.Error("first defective read must miss")
	}
	out = f.Read(addr)
	if !out.Hit || out.Latency != 3 {
		t.Errorf("buffered defective read = %+v, want hit at 3 cycles", out)
	}
	st := f.Stats()
	if st.BufferHits != 1 || st.BufferFills != 1 || st.DefectAccesses != 2 {
		t.Errorf("stats = %+v", st)
	}
	if got := n.DemandReads(); got != 1 {
		t.Errorf("L2 reads = %d, want 1 (buffer absorbed the repeat)", got)
	}
}

func TestFBAEvictsLRU(t *testing.T) {
	cfg := cache.L1Config("x")
	fm := cleanMap()
	// Three defective words in distinct sets, buffer of 2 entries.
	addrs := []uint64{}
	for i := 0; i < 3; i++ {
		set := i
		fm.SetDefective(cfg.Geometry().FrameWordIndex(set, 0, 0), true)
		for way := 1; way < 4; way++ {
			fm.SetDefective(cfg.Geometry().FrameWordIndex(set, way, 0), true)
		}
		addrs = append(addrs, uint64(set*32))
	}
	f, _ := NewFBA(fm, next(t), 2)
	f.Read(addrs[0])
	f.Read(addrs[1])
	f.Read(addrs[0]) // refresh 0
	f.Read(addrs[2]) // evicts 1
	if out := f.Read(addrs[0]); !out.Hit {
		t.Error("refreshed entry was evicted")
	}
	if out := f.Read(addrs[1]); out.Hit {
		t.Error("LRU entry should have been evicted")
	}
	if f.Entries() != 2 {
		t.Errorf("Entries = %d, want 2", f.Entries())
	}
}

func TestFBARejectsBadInputs(t *testing.T) {
	if _, err := NewFBA(cleanMap(), next(t), 0); err == nil {
		t.Error("zero entries must be rejected")
	}
	if _, err := NewFBA(faultmap.New(10), next(t), 64); err == nil {
		t.Error("wrong-size map must be rejected")
	}
}

func TestFBANames(t *testing.T) {
	a, _ := NewFBA(cleanMap(), next(t), 64)
	b, _ := NewFBA(cleanMap(), next(t), 1024)
	if a.Name() != "FBA" || b.Name() != "FBA+" {
		t.Errorf("names = %q, %q", a.Name(), b.Name())
	}
}

func TestIDCBasics(t *testing.T) {
	cfg := cache.L1Config("x")
	fm := cleanMap()
	for way := 0; way < 4; way++ {
		fm.SetDefective(cfg.Geometry().FrameWordIndex(0, way, 1), true)
	}
	n := next(t)
	c, err := NewIDC(fm, n, 64)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "IDC" || c.HitLatency() != 3 {
		t.Errorf("name=%q lat=%d", c.Name(), c.HitLatency())
	}
	addr := uint64(4)
	c.Read(addr)
	if out := c.Read(addr); !out.Hit {
		t.Error("aux cache should serve the repeat")
	}
	if c.Entries() != 1 {
		t.Errorf("Entries = %d, want 1", c.Entries())
	}
	big, _ := NewIDC(cleanMap(), next(t), 1024)
	if big.Name() != "IDC+" {
		t.Errorf("name = %q", big.Name())
	}
}

func TestIDCConflictEviction(t *testing.T) {
	// IDC's set-associative aux suffers conflicts the FBA would not:
	// IDCAssoc+1 defective words mapping to the same aux set evict each
	// other even though total capacity is plentiful.
	cfg := cache.L1Config("x")
	fm := cleanMap()
	entries := 64
	sets := entries / IDCAssoc // 16 aux sets
	var addrs []uint64
	// Word addresses congruent mod sets land in one aux set. Use
	// different L1 sets to avoid main-cache interference.
	for i := 0; i < IDCAssoc+1; i++ {
		l1set := i * sets / 8 // keep them in distinct L1 sets
		wordInBlock := 0
		wordAddr := uint64(l1set*8 + wordInBlock)
		if wordAddr%uint64(sets) != addrsMod(addrs, uint64(sets)) && len(addrs) > 0 {
			continue
		}
		for way := 0; way < 4; way++ {
			fm.SetDefective(cfg.Geometry().FrameWordIndex(l1set, way, wordInBlock), true)
		}
		addrs = append(addrs, wordAddr*4)
	}
	if len(addrs) < IDCAssoc+1 {
		t.Skip("could not construct conflicting addresses")
	}
	c, _ := NewIDC(fm, next(t), entries)
	for _, a := range addrs {
		c.Read(a)
	}
	// First address was LRU, evicted by the fifth.
	if out := c.Read(addrs[0]); out.Hit {
		t.Error("aux conflict should have evicted the first word")
	}
}

func addrsMod(addrs []uint64, m uint64) uint64 {
	if len(addrs) == 0 {
		return 0
	}
	return (addrs[0] / 4) % m
}

func TestIDCRejectsBadEntries(t *testing.T) {
	if _, err := NewIDC(cleanMap(), next(t), 3); err == nil {
		t.Error("entries below one set must be rejected")
	}
	if _, err := NewIDC(cleanMap(), next(t), 96); err == nil {
		t.Error("non-power-of-two sets must be rejected")
	}
}

func TestSchemeHitRatesOrderingAt400mV(t *testing.T) {
	// Drive identical access streams at Pfail 1e-2 and check the
	// qualitative ordering the paper reports: FBA+/IDC+ recover most
	// defective accesses; Simple-wdis does not.
	run := func(build func(fm *faultmap.Map, n *core.NextLevel) core.DataCache) float64 {
		fm := mapAt400(7)
		n := core.NewNextLevel(100)
		c := build(fm, n)
		rng := rand.New(rand.NewSource(9))
		hits, total := 0, 0
		// High-reuse workload over a small footprint.
		for i := 0; i < 60000; i++ {
			block := rng.Intn(256)
			word := rng.Intn(8)
			addr := uint64(block*32 + word*4)
			if c.Read(addr).Hit {
				hits++
			}
			total++
		}
		return float64(hits) / float64(total)
	}
	wdis := run(func(fm *faultmap.Map, n *core.NextLevel) core.DataCache {
		s, _ := NewSimpleWdis(fm, n)
		return s
	})
	fbaPlus := run(func(fm *faultmap.Map, n *core.NextLevel) core.DataCache {
		f, _ := NewFBA(fm, n, 1024)
		return f
	})
	idcPlus := run(func(fm *faultmap.Map, n *core.NextLevel) core.DataCache {
		c, _ := NewIDC(fm, n, 1024)
		return c
	})
	fba64 := run(func(fm *faultmap.Map, n *core.NextLevel) core.DataCache {
		f, _ := NewFBA(fm, n, 64)
		return f
	})
	if !(fbaPlus > wdis+0.1) {
		t.Errorf("FBA+ (%.3f) should beat Simple-wdis (%.3f) clearly at 400mV", fbaPlus, wdis)
	}
	if !(fbaPlus >= fba64) {
		t.Errorf("FBA+ (%.3f) should be >= FBA-64 (%.3f)", fbaPlus, fba64)
	}
	if math.Abs(fbaPlus-idcPlus) > 0.15 {
		t.Errorf("FBA+ (%.3f) and IDC+ (%.3f) should be broadly similar", fbaPlus, idcPlus)
	}
}

func TestWritePathsAcrossSchemes(t *testing.T) {
	// The write-through semantics are identical across the family: a miss
	// buffers the store without allocating; a resident fault-free word
	// hits; fetch shares the read path.
	builds := map[string]func(*core.NextLevel) core.DataCache{
		"wdis": func(n *core.NextLevel) core.DataCache {
			s, err := NewSimpleWdis(cleanMap(), n)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"wilkerson": func(n *core.NextLevel) core.DataCache {
			s, err := NewWilkersonPlus(cleanMap(), n)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"fba": func(n *core.NextLevel) core.DataCache {
			s, err := NewFBA(cleanMap(), n, 64)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
		"idc": func(n *core.NextLevel) core.DataCache {
			s, err := NewIDC(cleanMap(), n, 64)
			if err != nil {
				t.Fatal(err)
			}
			return s
		},
	}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			n := core.NewNextLevel(100)
			c := build(n)
			if out := c.Write(0x40); out.Hit {
				t.Error("write miss must not hit (no write allocate)")
			}
			if n.WordWrites() != 1 {
				t.Errorf("WordWrites = %d, want 1", n.WordWrites())
			}
			c.Read(0x40)
			if out := c.Write(0x44); !out.Hit {
				t.Error("write to resident fault-free word should hit")
			}
			ic, ok := c.(core.InstrCache)
			if !ok {
				t.Fatal("scheme must also serve as an instruction cache")
			}
			if out := ic.Fetch(0x40); !out.Hit {
				t.Error("fetch should share the read path")
			}
		})
	}
}

func TestWriteToBufferedDefectiveWord(t *testing.T) {
	// FBA/IDC: a store to a buffered defective word updates it in place
	// (hit); an unbuffered one bypasses.
	cfg := cache.L1Config("x")
	mk := func() *faultmap.Map {
		fm := cleanMap()
		for way := 0; way < 4; way++ {
			fm.SetDefective(cfg.Geometry().FrameWordIndex(0, way, 1), true)
		}
		return fm
	}
	n := next(t)
	f, _ := NewFBA(mk(), n, 64)
	addr := uint64(4) // set 0 word 1: defective
	if out := f.Write(addr); out.Hit {
		t.Error("store to unbuffered defective word must not hit")
	}
	f.Read(addr) // tag fill + buffer fill
	f.Read(addr) // buffer hit
	if out := f.Write(addr); !out.Hit {
		t.Error("store to buffered defective word should hit")
	}
	n2 := next(t)
	c, _ := NewIDC(mk(), n2, 64)
	c.Read(addr)
	c.Read(addr)
	if out := c.Write(addr); !out.Hit {
		t.Error("IDC store to buffered defective word should hit")
	}
}

func TestSchemeStatsAccessors(t *testing.T) {
	n := next(t)
	p := NewDefectFree(n)
	p.Read(0)
	if p.Stats().Reads != 1 {
		t.Error("Plain.Stats not wired")
	}
	s, _ := NewSimpleWdis(cleanMap(), n)
	if s.Name() != "Simple-wdis" {
		t.Errorf("Name = %q", s.Name())
	}
	s.Read(0)
	if s.Stats().Accesses != 1 {
		t.Error("Simple-wdis Stats not wired")
	}
	w, _ := NewWilkersonPlus(cleanMap(), n)
	w.Read(0)
	if w.Stats().Accesses != 1 {
		t.Error("Wilkerson+ Stats not wired")
	}
	c, _ := NewIDC(cleanMap(), n, 64)
	c.Read(0)
	if c.Stats().Accesses != 1 {
		t.Error("IDC Stats not wired")
	}
}

func TestConstructorNilNextLevel(t *testing.T) {
	if _, err := NewSimpleWdis(cleanMap(), nil); err == nil {
		t.Error("wdis nil next must fail")
	}
	if _, err := NewWilkersonPlus(cleanMap(), nil); err == nil {
		t.Error("wilkerson nil next must fail")
	}
	if _, err := NewFBA(cleanMap(), nil, 64); err == nil {
		t.Error("fba nil next must fail")
	}
	if _, err := NewIDC(cleanMap(), nil, 64); err == nil {
		t.Error("idc nil next must fail")
	}
	if _, err := NewWilkersonPlus(faultmap.New(8), next(t)); err == nil {
		t.Error("wilkerson wrong-size map must fail")
	}
	defer func() {
		if recover() == nil {
			t.Error("Plain with nil next should panic")
		}
	}()
	NewDefectFree(nil)
}
