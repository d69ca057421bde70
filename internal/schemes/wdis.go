package schemes

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
)

// l1cfg is the 32 KB/4-way organization every scheme shares.
var l1cfg = cache.L1Config("")

// errNilNext is shared by scheme constructors.
var errNilNext = errors.New("schemes: nil next level")

// frameMask derives one frame's fault mask from the map.
type frameMask func(fm *faultmap.Map, set, frame int) uint8

// newTags builds the tag array of a word-disable cache: the L1's sets,
// each with frames frames whose fault masks come from mask. A frame is a
// physical way (Simple-wdis, SECDED, FBA, IDC), a pair of ways combined
// into one logical line (Wilkerson⁺) or one of the three data ways left
// beside the repair way (Bit-fix). mask runs only here, never per
// access. Every frame stays in service: even a fully defective frame
// keeps its tag in the robust 8T tag array; it just never supplies
// words.
func newTags(fm *faultmap.Map, frames int, mask frameMask) (cache.Cache, error) {
	if fm.Words() != l1cfg.Words() {
		return cache.Cache{}, fmt.Errorf("schemes: fault map covers %d words, cache has %d", fm.Words(), l1cfg.Words())
	}
	cfg := l1cfg
	cfg.Ways, cfg.SizeBytes = frames, l1cfg.Sets()*frames*cache.BlockBytes
	c := cache.MustNew(cfg)
	for f := 0; f < cfg.Blocks(); f++ {
		c.SetFault(f, mask(fm, f/frames, f%frames))
	}
	return *c, nil
}

// wordOK reports whether addr's word entry is fault-free under fault.
func wordOK(fault uint8, addr uint64) bool { return fault&(1<<uint(cache.WordInBlock(addr))) == 0 }

// wayMask is a physical way's own fault mask.
func wayMask(fm *faultmap.Map, set, way int) uint8 { return fm.BlockMask(set*l1cfg.Ways + way) }

// pairMask is a Wilkerson logical line's mask: a slot is defective only
// when both of its physical entries are.
func pairMask(fm *faultmap.Map, set, line int) uint8 {
	return wayMask(fm, set, 2*line) & wayMask(fm, set, 2*line+1)
}

// bitFixMask is a Bit-fix data frame's mask after its repair budget.
func bitFixMask(fm *faultmap.Map, set, way int) uint8 {
	return repairMask(wayMask(fm, set, way), BitFixRepairsPerFrame)
}

// repairMask clears the lowest `repairs` set bits of the fault mask —
// those words are patched by the fix way and behave fault-free.
func repairMask(fault uint8, repairs int) uint8 {
	for i := 0; i < repairs && fault != 0; i++ {
		fault &= fault - 1 // clear lowest set bit
	}
	return fault
}

// WordDisable is a word-disable cache without substitution storage:
// an access whose word entry is defective is treated like a normal
// cache miss and served by the L2, every time. Writes are write-through
// without allocation. Simple-wdis, SECDED, Wilkerson⁺ and Bit-fix are
// all WordDisable caches; they differ in their frames, their fault
// masks and whether they add a cycle.
type WordDisable struct {
	name string
	lat  int
	tags cache.Cache
	next *core.NextLevel

	stats WdisStats
}

// WdisStats counts word-disable events.
type WdisStats struct {
	Accesses     uint64
	Hits         uint64
	TagMisses    uint64
	DefectMisses uint64 // accesses whose word entry was defective
}

// newWordDisable builds a WordDisable whose hit path takes extra cycles
// beyond the base L1's.
func newWordDisable(name string, extra int, fm *faultmap.Map, next *core.NextLevel, frames int, mask frameMask) (*WordDisable, error) {
	tags, err := newTags(fm, frames, mask)
	if err != nil {
		return nil, err
	}
	if next == nil {
		return nil, errNilNext
	}
	return &WordDisable{name: name, lat: l1cfg.HitLatency + extra, tags: tags, next: next}, nil
}

// NewSimpleWdis builds simple word disable ([2], the paper's
// Simple-wdis) over the cache's fault map. No extra latency (Table
// III), no substitution storage — the cheapest scheme, and the one that
// collapses when defects become dense (Figure 10 beyond 480 mV).
func NewSimpleWdis(fm *faultmap.Map, next *core.NextLevel) (*WordDisable, error) {
	return newWordDisable("Simple-wdis", 0, fm, next, l1cfg.Ways, wayMask)
}

// NewSECDED builds the error-correcting-code baseline from the paper's
// related work (Section III-B): every 32-bit word carries a (39,32)
// SECDED code. A single hard-failed bit per word is corrected in-line;
// words with two or more failed bits are uncorrectable and must be
// disabled — accesses to them are L2 trips, exactly like simple word
// disable. The correction stage adds one cycle to the hit path, and the
// check bits cost ~22% array area.
//
// The paper's argument against this class — "with aggressive voltage
// scaling, multi-bit errors become increasingly likely and quickly
// overwhelm the capability of ECC" — is directly measurable here: the
// residual (≥2-bit) word defect rate is ~5e-6 at 560 mV but 4.1% at
// 400 mV, so SECDED behaves like an always-one-cycle-slower cache at
// moderate voltage and degrades toward word-disable behaviour at 400 mV.
//
// Pass the *multi-bit* fault map from faultmap.GenerateSECDED (not the
// raw word map).
func NewSECDED(multibit *faultmap.Map, next *core.NextLevel) (*WordDisable, error) {
	return newWordDisable("SECDED", 1, multibit, next, l1cfg.Ways, wayMask)
}

// NewWilkersonPlus builds Wilkerson's word-disable scheme [4]: two
// consecutive physical frames combine into one logical line, each word
// slot served by whichever of the two frames has that entry fault-free.
// Capacity and associativity are halved (4-way/32 KB becomes effectively
// 2-way/16 KB) and the combining multiplexers cost one extra cycle
// (Table III).
//
// A logical slot is defective only when *both* physical entries fail.
// Plain word-disable requires every logical slot in the cache to be
// usable — which stops yielding below ~480 mV (the paper's Fig. 10 note);
// the evaluated variant is Wilkerson⁺, which falls back to simple word
// disable (an L2 trip per access) on residual defective slots.
func NewWilkersonPlus(fm *faultmap.Map, next *core.NextLevel) (*WordDisable, error) {
	return newWordDisable("Wilkerson+", 1, fm, next, l1cfg.Ways/2, pairMask)
}

// BitFixRepairsPerFrame is each data frame's repair budget: the fix way's
// eight words, with position tags and valid bits, cover about two
// repaired words for each of its three client frames.
const BitFixRepairsPerFrame = 2

// NewBitFix adapts Wilkerson's bit-fix scheme [4] to this simulator's
// word granularity: one way per set (a quarter of the cache) is
// sacrificed to store repair patterns for the other three, and each
// remaining frame can have up to BitFixRepairsPerFrame of its defective
// words patched by those entries. The fix-up multiplexing costs one
// extra cycle, capacity drops to 75%, and — the paper's point in §III —
// the repair budget that comfortably covers the defect density at
// 500 mV is swamped at 400 mV, where frames average 2.2 defective words
// and the unrepaired excess behaves like simple word disable.
//
// The fix way is way 3 of each set; its own defects reduce nothing
// further (repair entries are small and protected like tag state in the
// original design).
func NewBitFix(fm *faultmap.Map, next *core.NextLevel) (*WordDisable, error) {
	return newWordDisable("Bit-fix", 1, fm, next, l1cfg.Ways-1, bitFixMask)
}

// everyFrame reports whether fm is sized for the L1 and ok(set, frame)
// holds for frames 0..frames-1 of every set.
func everyFrame(fm *faultmap.Map, frames int, ok func(set, frame int) bool) bool {
	if fm.Words() != l1cfg.Words() {
		return false
	}
	for s := 0; s < l1cfg.Sets(); s++ {
		for f := 0; f < frames; f++ {
			if !ok(s, f) {
				return false
			}
		}
	}
	return true
}

// Coverable reports whether plain Wilkerson word-disable (without the
// simple-wdis supplement) can guarantee architecturally correct execution
// on this fault map: no logical slot may be defective. This is the yield
// criterion behind the paper's "Wilkerson cannot achieve 99.9% chip yield
// below 480mV".
func Coverable(fm *faultmap.Map) bool {
	return everyFrame(fm, l1cfg.Ways/2, func(s, l int) bool { return pairMask(fm, s, l) == 0 })
}

// CoverableBitFix reports whether plain bit-fix (no word-disable
// fallback) covers the fault map: every data frame must have at most
// BitFixRepairsPerFrame defective words. This is the yield criterion
// behind the paper's "reduce Vccmin to 500mV" for bit-fix.
func CoverableBitFix(fm *faultmap.Map) bool {
	return everyFrame(fm, l1cfg.Ways-1, func(s, w int) bool {
		return bits.OnesCount8(wayMask(fm, s, w)) <= BitFixRepairsPerFrame
	})
}

// Name implements core.DataCache/core.InstrCache.
func (c *WordDisable) Name() string { return c.name }

// HitLatency implements core.DataCache/core.InstrCache.
func (c *WordDisable) HitLatency() int { return c.lat }

// Stats returns the scheme's counters.
func (c *WordDisable) Stats() WdisStats { return c.stats }

// Read implements core.DataCache.
func (c *WordDisable) Read(addr uint64) core.AccessOutcome {
	c.stats.Accesses++
	tagHit, fault := c.tags.Lookup(addr, true)
	ok := wordOK(fault, addr)
	if tagHit && ok {
		c.stats.Hits++
		return core.HitOutcome(c.lat)
	}
	if !tagHit {
		c.stats.TagMisses++
	}
	if !ok {
		c.stats.DefectMisses++
	}
	return core.MissOutcome(c.lat, c.next, addr)
}

// Write implements core.DataCache: write-through, no write allocate.
func (c *WordDisable) Write(addr uint64) core.AccessOutcome {
	c.next.WriteWord(addr)
	if tagHit, fault := c.tags.Lookup(addr, false); tagHit && wordOK(fault, addr) {
		return core.HitOutcome(c.lat)
	}
	return core.AccessOutcome{Latency: c.lat}
}

// Fetch implements core.InstrCache.
func (c *WordDisable) Fetch(addr uint64) core.AccessOutcome { return c.Read(addr) }
