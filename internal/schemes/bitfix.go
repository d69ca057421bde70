package schemes

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
)

// BitFix adapts Wilkerson's bit-fix scheme [4] to this simulator's word
// granularity: one way per set (a quarter of the cache) is sacrificed to
// store repair patterns for the other three, and each remaining frame can
// have up to BitFixRepairsPerFrame of its defective words patched by
// those entries. The fix-up multiplexing costs one extra cycle, capacity
// drops to 75%, and — the paper's point in §III — the repair budget that
// comfortably covers the defect density at 500 mV is swamped at 400 mV,
// where frames average 2.2 defective words and the unrepaired excess
// behaves like simple word disable.
type BitFix struct {
	cfg  cache.Config
	geo  cache.Geometry
	next *core.NextLevel
	sets [][]mline // Sets() x (Ways-1) data frames
	tick uint64

	stats WdisStats
}

// BitFixRepairsPerFrame is each data frame's repair budget: the fix way's
// eight words, with position tags and valid bits, cover about two
// repaired words for each of its three client frames.
const BitFixRepairsPerFrame = 2

// NewBitFix builds the scheme over the fault map. The fix way is way 3 of
// each set; its own defects reduce nothing further (repair entries are
// small and protected like tag state in the original design).
func NewBitFix(fm *faultmap.Map, next *core.NextLevel) (*BitFix, error) {
	cfg := cache.L1Config("L1-bitfix")
	if fm.Words() != cfg.Words() {
		return nil, errMapSize(fm.Words(), cfg.Words())
	}
	if next == nil {
		return nil, errNilNext
	}
	b := &BitFix{cfg: cfg, geo: cfg.Geometry(), next: next}
	dataWays := cfg.Ways - 1
	b.sets = make([][]mline, cfg.Sets())
	lines := make([]mline, cfg.Sets()*dataWays)
	for s := range b.sets {
		b.sets[s], lines = lines[:dataWays], lines[dataWays:]
	}
	for s := 0; s < cfg.Sets(); s++ {
		for w := 0; w < dataWays; w++ {
			mask := fm.BlockMask(s*cfg.Ways + w)
			b.sets[s][w].fault = repairMask(mask, BitFixRepairsPerFrame)
		}
	}
	return b, nil
}

// repairMask clears the lowest `repairs` set bits of the fault mask —
// those words are patched by the fix way and behave fault-free.
func repairMask(fault uint8, repairs int) uint8 {
	for i := 0; i < repairs && fault != 0; i++ {
		fault &= fault - 1 // clear lowest set bit
	}
	return fault
}

// CoverableBitFix reports whether plain bit-fix (no word-disable
// fallback) covers the fault map: every data frame must have at most
// BitFixRepairsPerFrame defective words. This is the yield criterion
// behind the paper's "reduce Vccmin to 500mV" for bit-fix.
func CoverableBitFix(fm *faultmap.Map) bool {
	cfg := cache.L1Config("L1-bitfix")
	if fm.Words() != cfg.Words() {
		return false
	}
	for s := 0; s < cfg.Sets(); s++ {
		for w := 0; w < cfg.Ways-1; w++ {
			if bits.OnesCount8(fm.BlockMask(s*cfg.Ways+w)) > BitFixRepairsPerFrame {
				return false
			}
		}
	}
	return true
}

// Name implements core.DataCache/core.InstrCache.
func (b *BitFix) Name() string { return "Bit-fix" }

// HitLatency implements core.DataCache/core.InstrCache: +1 cycle for the
// fix-up multiplexers.
func (b *BitFix) HitLatency() int { return b.cfg.HitLatency + 1 }

// Stats returns the scheme's counters.
func (b *BitFix) Stats() WdisStats { return b.stats }

func (b *BitFix) lookup(addr uint64, allocate bool) lookupResult {
	b.tick++
	set := b.geo.Index(addr)
	tag := b.geo.Tag(addr)
	word := cache.WordInBlock(addr)
	for w := range b.sets[set] {
		l := &b.sets[set][w]
		if l.valid && l.tag == tag {
			l.lru = b.tick
			return lookupResult{tagHit: true, wordOK: l.fault&(1<<uint(word)) == 0}
		}
	}
	if !allocate {
		return lookupResult{}
	}
	best, bestLRU := 0, ^uint64(0)
	for w := range b.sets[set] {
		l := &b.sets[set][w]
		if !l.valid {
			best = w
			break
		}
		if l.lru < bestLRU {
			best, bestLRU = w, l.lru
		}
	}
	l := &b.sets[set][best]
	*l = mline{tag: tag, valid: true, lru: b.tick, fault: l.fault}
	return lookupResult{filled: true, wordOK: l.fault&(1<<uint(word)) == 0}
}

// Read implements core.DataCache.
func (b *BitFix) Read(addr uint64) core.AccessOutcome {
	b.stats.Accesses++
	r := b.lookup(addr, true)
	if r.tagHit && r.wordOK {
		b.stats.Hits++
		return core.HitOutcome(b.HitLatency())
	}
	if !r.tagHit {
		b.stats.TagMisses++
	}
	if !r.wordOK {
		b.stats.DefectMisses++
	}
	return core.MissOutcome(b.HitLatency(), b.next, addr)
}

// Write implements core.DataCache.
func (b *BitFix) Write(addr uint64) core.AccessOutcome {
	b.next.WriteWord(addr)
	r := b.lookup(addr, false)
	if r.tagHit && r.wordOK {
		return core.HitOutcome(b.HitLatency())
	}
	return core.AccessOutcome{Latency: b.HitLatency()}
}

// Fetch implements core.InstrCache.
func (b *BitFix) Fetch(addr uint64) core.AccessOutcome { return b.Read(addr) }
