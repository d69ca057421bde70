// Package faultmap provides word-granularity fault maps for cache data
// arrays, the Monte Carlo machinery that generates them, and the BIST
// (built-in self-test) simulation that discovers them.
//
// The paper identifies defective words with BIST at every supported DVFS
// operating point, stores the maps off-chip, and loads the map matching
// the current operating condition into the FMAP array on a voltage switch
// (Section IV). Here a Map is the in-memory form, Series generates
// voltage-nested maps (a word that fails at 560 mV also fails at every
// lower voltage), and MarshalBinary/UnmarshalBinary provide the
// "off-chip storage" representation.
package faultmap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// WordsPerBlock is the number of 32-bit words in a 32 B cache block.
const WordsPerBlock = 8

// Map is a word-granularity fault map: bit w set means physical word w of
// the data array is defective at the map's operating condition.
type Map struct {
	words int
	set   []uint64 // bitset, one bit per word
}

// New returns an all-fault-free map covering the given number of words.
// It panics if words is not positive: array geometry is fixed by the
// cache configuration, not runtime data.
func New(words int) *Map {
	if words <= 0 {
		//lvlint:ignore nopanic documented constructor guard: array geometry is fixed by the cache configuration
		panic("faultmap: New requires words > 0")
	}
	return &Map{words: words, set: make([]uint64, (words+63)/64)}
}

// Words returns the number of words the map covers.
func (m *Map) Words() int { return m.words }

// Defective reports whether word w is defective. Out-of-range words are
// reported as defective, which fails safe for callers that compute
// indices: touching memory outside the array is never fault-free.
func (m *Map) Defective(w int) bool {
	if w < 0 || w >= m.words {
		return true
	}
	return m.set[w>>6]&(1<<(uint(w)&63)) != 0
}

// SetDefective marks word w defective (true) or fault-free (false).
// Out-of-range indices panic: they indicate a geometry bug.
func (m *Map) SetDefective(w int, defective bool) {
	if w < 0 || w >= m.words {
		//lvlint:ignore nopanic documented bounds panic mirroring slice semantics: out-of-range means a geometry bug
		panic(fmt.Sprintf("faultmap: word %d out of range [0,%d)", w, m.words))
	}
	mask := uint64(1) << (uint(w) & 63)
	if defective {
		m.set[w>>6] |= mask
	} else {
		m.set[w>>6] &^= mask
	}
}

// CountDefective returns the number of defective words.
func (m *Map) CountDefective() int {
	n := 0
	for _, w := range m.set {
		n += bits.OnesCount64(w)
	}
	return n
}

// FaultFreeWords returns the number of fault-free words — the map's
// effective capacity in words (Figure 6a).
func (m *Map) FaultFreeWords() int { return m.words - m.CountDefective() }

// BlockMask returns an 8-bit mask of the defective words within the
// aligned 8-word block starting at word index block*WordsPerBlock. Bit i
// set means word i of the block is defective. This is the per-line fault
// pattern held in the FFW cache's FMAP array.
func (m *Map) BlockMask(block int) uint8 {
	base := block * WordsPerBlock
	var mask uint8
	for i := 0; i < WordsPerBlock; i++ {
		if m.Defective(base + i) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// Chunk is a maximal run of contiguous fault-free words: the unit BBR
// allocates basic blocks into.
type Chunk struct {
	Start int // first word index of the run
	Len   int // run length in words
}

// Chunks enumerates every maximal fault-free chunk in ascending order.
func (m *Map) Chunks() []Chunk {
	var out []Chunk
	start := -1
	for w := 0; w <= m.words; w++ {
		if w < m.words && !m.Defective(w) {
			if start < 0 {
				start = w
			}
			continue
		}
		if start >= 0 {
			out = append(out, Chunk{Start: start, Len: w - start})
			start = -1
		}
	}
	return out
}

// Clone returns a deep copy.
func (m *Map) Clone() *Map {
	c := New(m.words)
	copy(c.set, m.set)
	return c
}

// Equal reports whether two maps cover the same words with identical
// defect patterns.
func (m *Map) Equal(o *Map) bool {
	if m.words != o.words {
		return false
	}
	for i := range m.set {
		if m.set[i] != o.set[i] {
			return false
		}
	}
	return true
}

// Subsumes reports whether every word defective in o is also defective in
// m — the nesting invariant between a lower-voltage map (m) and a
// higher-voltage map (o).
func (m *Map) Subsumes(o *Map) bool {
	if m.words != o.words {
		return false
	}
	for i := range m.set {
		if o.set[i]&^m.set[i] != 0 {
			return false
		}
	}
	return true
}

// Generate draws a fault map for an array of the given number of words
// where each bit fails independently with probability pfailBit, so each
// 32-bit word is defective with 1-(1-p)^32. The rng must not be nil.
func Generate(words int, pfailBit float64, rng *rand.Rand) *Map {
	m := New(words)
	pWord := wordFailProb(pfailBit)
	for w := 0; w < words; w++ {
		if rng.Float64() < pWord {
			m.SetDefective(w, true)
		}
	}
	return m
}

func wordFailProb(pfailBit float64) float64 {
	if pfailBit <= 0 {
		return 0
	}
	if pfailBit >= 1 {
		return 1
	}
	return -math.Expm1(32 * math.Log1p(-pfailBit))
}

// Series holds voltage-nested randomness for one physical array: per word,
// the minimum of its 32 per-bit uniform draws. A word is defective at
// per-bit failure probability p iff its threshold < p, so maps taken at
// decreasing voltage (increasing p) are supersets of one another — exactly
// the physical behaviour of a die under deeper scaling.
type Series struct {
	thresholds []float64
}

// NewSeries draws the per-word thresholds for an array of the given number
// of words. The minimum of 32 i.i.d. uniforms is sampled directly via
// inverse CDF (1-(1-u)^(1/32)) — one draw per word instead of 32.
func NewSeries(words int, rng *rand.Rand) *Series {
	if words <= 0 {
		//lvlint:ignore nopanic documented constructor guard: array geometry is fixed by the cache configuration
		panic("faultmap: NewSeries requires words > 0")
	}
	t := make([]float64, words)
	for i := range t {
		u := rng.Float64()
		t[i] = -math.Expm1(math.Log1p(-u) / 32)
	}
	return &Series{thresholds: t}
}

// MapAt materializes the fault map of this die at the given per-bit
// failure probability.
func (s *Series) MapAt(pfailBit float64) *Map {
	m := New(len(s.thresholds))
	for w, th := range s.thresholds {
		if th < pfailBit {
			m.SetDefective(w, true)
		}
	}
	return m
}

// Words returns the number of words the series covers.
func (s *Series) Words() int { return len(s.thresholds) }

// Binary serialization: the paper stores fault maps in off-chip storage
// and loads them with special instructions or system calls on a DVFS
// switch. The format is:
//
//	magic "FMAP" | version uint16 | reserved uint16 | words uint32 | bitset
var (
	magic = [4]byte{'F', 'M', 'A', 'P'}
	// ErrBadFormat is returned when unmarshalling data that is not a
	// serialized fault map.
	ErrBadFormat = errors.New("faultmap: bad serialized format")
)

const formatVersion = 1

// MarshalBinary implements encoding.BinaryMarshaler.
func (m *Map) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 12+8*len(m.set))
	buf = append(buf, magic[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, formatVersion)
	buf = binary.LittleEndian.AppendUint16(buf, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.words))
	for _, w := range m.set {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (m *Map) UnmarshalBinary(data []byte) error {
	if len(data) < 12 || string(data[:4]) != string(magic[:]) {
		return ErrBadFormat
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != formatVersion {
		return fmt.Errorf("%w: unsupported version %d", ErrBadFormat, v)
	}
	words := int(binary.LittleEndian.Uint32(data[8:12]))
	if words <= 0 {
		return fmt.Errorf("%w: non-positive word count", ErrBadFormat)
	}
	nSet := (words + 63) / 64
	if len(data) != 12+8*nSet {
		return fmt.Errorf("%w: length %d does not match %d words", ErrBadFormat, len(data), words)
	}
	set := make([]uint64, nSet)
	for i := range set {
		set[i] = binary.LittleEndian.Uint64(data[12+8*i:])
	}
	// Reject stray bits beyond the last word so Equal/CountDefective stay
	// meaningful.
	if rem := uint(words) & 63; rem != 0 && set[nSet-1]>>rem != 0 {
		return fmt.Errorf("%w: defect bits beyond word count", ErrBadFormat)
	}
	m.words = words
	m.set = set
	return nil
}
