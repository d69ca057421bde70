package bbr

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
	"repro/internal/inject"
)

// ICache is the BBR instruction cache in low-voltage mode: the 4-way
// set-associative array operated direct-mapped (Figure 7), fetching a
// program whose blocks were placed by Link so that no fetch ever touches
// a defective word. It implements core.InstrCache.
//
// The extra way-select multiplexer sits in the tag path, which is shorter
// than the data path, so BBR adds zero cycles to the hit latency
// (Table III).
type ICache struct {
	c      *cache.Cache
	geo    cache.Geometry
	hitLat int
	next   *core.NextLevel
	fm     *faultmap.Map

	inj    *inject.Injector // runtime fault layer (nil = static faults only)
	ticks  uint64           // access clock driving the injector
	fstats inject.Stats     // detection/recovery counters

	// DefectiveFetches counts fetches that touched a defective physical
	// word — always zero when the program was linked against the same
	// fault map; nonzero indicates a linker bug or a mismatched map.
	DefectiveFetches uint64
}

// NewICache builds the low-voltage BBR instruction cache over the given
// fault map and next level. The cache starts flushed and direct-mapped,
// matching the paper's mode-switch semantics.
func NewICache(fm *faultmap.Map, next *core.NextLevel) (*ICache, error) {
	cfg := cache.L1Config("L1I-BBR")
	if fm.Words() != cfg.Words() {
		return nil, fmt.Errorf("bbr: fault map covers %d words, cache has %d", fm.Words(), cfg.Words())
	}
	if next == nil {
		return nil, fmt.Errorf("bbr: nil next level")
	}
	c := cache.MustNew(cfg)
	c.SetMode(cache.DirectMapped)
	return &ICache{c: c, geo: cfg.Geometry(), hitLat: cfg.HitLatency, next: next, fm: fm}, nil
}

// Name implements core.InstrCache.
func (ic *ICache) Name() string { return "BBR" }

// HitLatency implements core.InstrCache: zero overhead over the 2-cycle
// baseline.
func (ic *ICache) HitLatency() int { return ic.hitLat }

// Stats exposes the underlying cache counters.
func (ic *ICache) Stats() cache.Stats { return ic.c.Stats() }

// AttachInjector connects the runtime fault-injection layer. The linker
// placed the program against the manufacturing fault map only, so
// injected faults land on words BBR believed safe; Fetch detects them
// parity-style and recovers (see Fetch). Pass nil to detach.
func (ic *ICache) AttachInjector(in *inject.Injector) { ic.inj = in }

// FaultStats returns the runtime-injection counters: the injector's
// event counts merged with the cache's detection/recovery counters.
// Zero when no injector is attached.
func (ic *ICache) FaultStats() inject.Stats {
	s := ic.fstats
	if ic.inj != nil {
		s.Add(ic.inj.InjectedStats())
	}
	return s
}

// DisabledFrames returns the number of cache frames taken out of
// service by unrecoverable injected faults.
func (ic *ICache) DisabledFrames() int { return ic.c.DisabledFrames() }

// Fetch implements core.InstrCache: a direct-mapped access; misses fill
// from the next level.
//
// With an injector attached, every hit checks the fetched physical word
// and recovers on detection: a transient flip costs one retry (still a
// hit); an intermittent fault invalidates the block and refetches it
// from below (the frame refills on the next fetch and is re-checked);
// a permanent fault disables the frame outright — relinking the program
// mid-run is not possible, so the slot's fetches are served from the
// next level for the rest of the run (capacity degradation).
func (ic *ICache) Fetch(addr uint64) core.AccessOutcome {
	// Invariant: the fetched word's physical location must be fault-free.
	phys := ic.geo.DMImageWordIndex(ic.geo.ImagePos(addr))
	if ic.fm.Defective(phys) {
		ic.DefectiveFetches++
	}
	if ic.inj != nil {
		ic.ticks++
		ic.inj.Advance(ic.ticks)
	}
	res := ic.c.Access(addr, false)
	if !res.Hit {
		return core.MissOutcome(ic.HitLatency(), ic.next, addr)
	}
	if ic.inj != nil {
		switch {
		case ic.inj.PermanentWord(phys):
			ic.fstats.Detected++
			ic.fstats.Uncorrected++
			ic.fstats.DisabledLines++
			ic.c.DisableFrame(phys / cache.WordsPerBlock)
			out := core.MissOutcome(ic.HitLatency(), ic.next, addr)
			ic.fstats.RecoveryCycles += uint64(out.Latency - ic.HitLatency())
			return out
		case ic.inj.FaultyWord(phys):
			// Intermittent: drop the block and refetch from below; the
			// next fetch refills the frame and re-checks it.
			ic.fstats.Detected++
			ic.fstats.CorrectedRefetch++
			ic.c.Invalidate(addr)
			out := core.MissOutcome(ic.HitLatency(), ic.next, addr)
			ic.fstats.RecoveryCycles += uint64(out.Latency - ic.HitLatency())
			return out
		case ic.inj.TransientNow():
			ic.fstats.Detected++
			ic.fstats.CorrectedRetry++
			ic.fstats.RecoveryCycles += uint64(ic.HitLatency())
			return core.HitOutcome(2 * ic.HitLatency())
		}
	}
	return core.HitOutcome(ic.HitLatency())
}
