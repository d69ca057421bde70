// Package schemes implements the comparison L1 fault-tolerance schemes of
// the paper's evaluation (Section V/VI): the ideal defect-free cache, the
// robust 8T-cell cache, Simple word disable [2], Wilkerson's word disable
// [4] (with the simple-wdis supplement, "Wilkerson+"), the Fault Buffer
// Array [2] and the Inquisitive Defect Cache [21], plus two extension
// baselines the paper discusses but does not evaluate: per-word SECDED
// ECC and Wilkerson's Bit-fix [4]. The paper's own proposals live in
// packages ffw and bbr.
//
// Every scheme implements core.DataCache and core.InstrCache over the
// same 32 KB/4-way L1 geometry; the simulation layer instantiates one
// copy per cache with that cache's fault map. The defect-oblivious
// caches are Plain. The word-disable family is two types: WordDisable
// (Simple-wdis, SECDED, Wilkerson+, Bit-fix), which sends every access
// to a defective word entry to the L2, and Buffered (FBA, IDC), which
// holds in-use defective words in a small side buffer. Each keeps its
// tags in a cache.Cache whose frames carry the word-disable fault masks:
// the L1's 256 sets with 4 frames each, 2 for Wilkerson's paired lines or
// 3 for Bit-fix's data ways. The IDC's buffer is a cache.Cache too.
package schemes

import (
	"repro/internal/cache"
	"repro/internal/core"
)

// Plain is a defect-oblivious cache: the ideal defect-free baseline
// (extra latency 0) and the robust 8T-cell cache (extra latency 1 — the
// paper grants 8T one extra cycle because its 28% larger array stretches
// wire-dominated paths). Plain caches have no defective words by
// construction: the baseline because it is ideal, the 8T because its
// cells hold to 400 mV.
type Plain struct {
	name string
	c    *cache.Cache
	next *core.NextLevel
	lat  int
}

// NewDefectFree returns the unrealistic defect-free baseline the paper
// normalizes runtime against.
func NewDefectFree(next *core.NextLevel) *Plain {
	return newPlain("DefectFree", next, 0)
}

// NewConventional returns the conventional 6T cache — identical to the
// defect-free cache but only operable at Vccmin (760 mV); it is the
// energy baseline.
func NewConventional(next *core.NextLevel) *Plain {
	return newPlain("Conventional", next, 0)
}

// New8T returns the 8T-cell cache: reliable at every evaluated voltage,
// one extra cycle of hit latency, 28% more area (Table III).
func New8T(next *core.NextLevel) *Plain {
	return newPlain("8T", next, 1)
}

func newPlain(name string, next *core.NextLevel, extraLatency int) *Plain {
	if next == nil {
		//lvlint:ignore nopanic nil-receiver wiring bug caught at construction, like cache.MustNew below
		panic("schemes: nil next level")
	}
	return &Plain{
		name: name,
		c:    cache.MustNew(cache.L1Config("L1-" + name)),
		next: next,
		lat:  cache.L1Config("").HitLatency + extraLatency,
	}
}

// Name implements core.DataCache/core.InstrCache.
func (p *Plain) Name() string { return p.name }

// HitLatency implements core.DataCache/core.InstrCache.
func (p *Plain) HitLatency() int { return p.lat }

// Stats exposes the underlying counters.
func (p *Plain) Stats() cache.Stats { return p.c.Stats() }

// Read implements core.DataCache.
func (p *Plain) Read(addr uint64) core.AccessOutcome {
	if p.c.Access(addr, false).Hit {
		return core.HitOutcome(p.lat)
	}
	return core.MissOutcome(p.lat, p.next, addr)
}

// Write implements core.DataCache (write-through, no write allocate).
func (p *Plain) Write(addr uint64) core.AccessOutcome {
	p.next.WriteWord(addr)
	if p.c.Access(addr, true).Hit {
		return core.HitOutcome(p.lat)
	}
	return core.AccessOutcome{Latency: p.lat}
}

// Fetch implements core.InstrCache.
func (p *Plain) Fetch(addr uint64) core.AccessOutcome { return p.Read(addr) }
