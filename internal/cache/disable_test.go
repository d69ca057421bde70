package cache

import "testing"

// smallCfg is a 4-set, 2-way cache for frame-disable tests.
func smallCfg() Config {
	return Config{Name: "tiny", SizeBytes: 8 * BlockBytes, Ways: 2, HitLatency: 1}
}

func TestDisableFrameBasics(t *testing.T) {
	c := MustNew(smallCfg())
	if c.DisabledFrames() != 0 {
		t.Fatal("new cache has disabled frames")
	}
	c.Access(0, false) // fill set 0
	c.DisableFrame(0)
	if !c.FrameDisabled(0) || c.DisabledFrames() != 1 {
		t.Fatal("frame not disabled")
	}
	if c.Probe(0) {
		t.Fatal("resident block must be invalidated on disable")
	}
	if s := c.Stats(); s.Disables != 1 || s.Invalidates != 1 {
		t.Fatalf("stats %+v, want 1 disable + 1 invalidate", s)
	}
	// Idempotent; out-of-range is a no-op.
	c.DisableFrame(0)
	c.DisableFrame(-1)
	c.DisableFrame(99)
	if s := c.Stats(); s.Disables != 1 {
		t.Fatalf("re-disable counted: %+v", s)
	}
	if c.FrameDisabled(99) || c.FrameDisabled(-1) {
		t.Fatal("out-of-range frame reported disabled")
	}
}

func TestDisabledFrameNeverRefills(t *testing.T) {
	c := MustNew(smallCfg())
	c.DisableFrame(0) // set 0, way 0
	c.DisableFrame(1) // set 0, way 1
	// Set 0 fully out of service: every access misses without a fill.
	for i := 0; i < 10; i++ {
		addr := uint64(i) * uint64(c.cfg.Sets()) * BlockBytes // all map to set 0
		if res := c.Access(addr, false); res.Hit || res.Filled {
			t.Fatalf("access %d: %+v on a fully disabled set", i, res)
		}
	}
	if s := c.Stats(); s.Fills != 0 {
		t.Fatalf("disabled set filled: %+v", s)
	}
	// Other sets are unaffected.
	if res := c.Access(BlockBytes, false); !res.Filled {
		t.Fatal("healthy set did not fill")
	}
}

func TestVictimSkipsDisabledWay(t *testing.T) {
	c := MustNew(smallCfg())
	c.DisableFrame(2) // set 1, way 0
	setStride := uint64(c.cfg.Sets()) * BlockBytes
	// Three distinct blocks into set 1: all must funnel through way 1.
	for i := 0; i < 3; i++ {
		a := BlockBytes + uint64(i)*setStride
		if res := c.Access(a, false); !res.Filled {
			t.Fatalf("fill %d did not allocate", i)
		}
	}
	if got := c.Stats().Evictions; got != 2 {
		t.Fatalf("Evictions = %d, want 2 (single usable way)", got)
	}
	if !c.Probe(BlockBytes + 2*setStride) {
		t.Fatal("most recent block not resident in the surviving way")
	}
}

func TestDirectMappedDisabledSlot(t *testing.T) {
	c := MustNew(smallCfg())
	c.SetMode(DirectMapped)
	addr := uint64(0)
	g := c.cfg.Geometry()
	c.DisableFrame(g.Index(addr)*c.cfg.Ways + g.DMWay(addr))
	for i := 0; i < 3; i++ {
		if res := c.Access(addr, false); res.Hit || res.Filled {
			t.Fatalf("access %d to disabled DM slot: %+v", i, res)
		}
	}
}

func TestFlushPreservesDisabled(t *testing.T) {
	c := MustNew(smallCfg())
	c.DisableFrame(5) // set 2, way 1
	c.Flush()
	if !c.FrameDisabled(5) {
		t.Fatal("flush revived a disabled frame")
	}
	c.SetMode(DirectMapped) // mode switch flushes too
	if !c.FrameDisabled(5) {
		t.Fatal("mode switch revived a disabled frame")
	}
}

func TestDisableWithPLRUAndFIFO(t *testing.T) {
	for _, rep := range []Replacement{ReplacePLRU, ReplaceFIFO} {
		cfg := smallCfg()
		cfg.Replacement = rep
		c := MustNew(cfg)
		c.DisableFrame(0)
		setStride := uint64(c.cfg.Sets()) * BlockBytes
		for i := 0; i < 4; i++ {
			if res := c.Access(uint64(i)*setStride, false); !res.Filled {
				t.Fatalf("%v: fill %d did not allocate around the disabled way", rep, i)
			}
		}
		if c.FrameDisabled(0) && c.Probe(0) && c.cfg.Geometry().DMWay(0) == 0 {
			t.Fatalf("%v: block landed in the disabled way", rep)
		}
	}
}
