package faultmap

import "repro/internal/sram"

// March C- self test ([23]-style). The checkerboard pass in RunBIST
// detects stuck bits, but because it writes the whole array with one
// pattern before reading anything, it is structurally blind to address
// decoder faults: if the decoder aliases two rows, every cell still holds
// the same pattern and every read matches. March C- interleaves reads and
// writes while the array holds a mixed 0/1 state, which is exactly what
// exposes aliasing — the industry reason March tests, not pattern tests,
// qualify SRAMs.
//
// Elements (word-level, 0 = all-zeros, 1 = all-ones):
//
//	M0: ⇕ w0          M1: ⇑ (r0, w1)     M2: ⇑ (r1, w0)
//	M3: ⇓ (r0, w1)    M4: ⇓ (r1, w0)     M5: ⇕ r0
const (
	// MarchM1..MarchM5 flag which element observed a word misbehave.
	MarchM1 uint8 = 1 << iota
	MarchM2
	MarchM3
	MarchM4
	MarchM5
)

// MarchResult carries the discovered fault map plus per-word diagnosis:
// which march elements flagged each word (useful for distinguishing
// stuck-at faults, which fail symmetric elements, from decoder faults,
// which fail the mixed-state elements asymmetrically).
type MarchResult struct {
	Map      *Map
	Elements []uint8
}

// MarchCMinus runs the word-level March C- over the array.
func MarchCMinus(a *Array) *MarchResult {
	const (
		zero = 0x00000000
		ones = 0xFFFFFFFF
	)
	n := a.Words()
	res := &MarchResult{Map: New(n), Elements: make([]uint8, n)}
	flag := func(w int, el uint8) {
		res.Map.SetDefective(w, true)
		res.Elements[w] |= el
	}

	// M0: ascending write 0.
	for w := 0; w < n; w++ {
		a.Write(w, zero)
	}
	// M1: ascending read 0, write 1.
	for w := 0; w < n; w++ {
		if a.Read(w) != zero {
			flag(w, MarchM1)
		}
		a.Write(w, ones)
	}
	// M2: ascending read 1, write 0.
	for w := 0; w < n; w++ {
		if a.Read(w) != ones {
			flag(w, MarchM2)
		}
		a.Write(w, zero)
	}
	// M3: descending read 0, write 1.
	for w := n - 1; w >= 0; w-- {
		if a.Read(w) != zero {
			flag(w, MarchM3)
		}
		a.Write(w, ones)
	}
	// M4: descending read 1, write 0.
	for w := n - 1; w >= 0; w-- {
		if a.Read(w) != ones {
			flag(w, MarchM4)
		}
		a.Write(w, zero)
	}
	// M5: final read 0.
	for w := 0; w < n; w++ {
		if a.Read(w) != zero {
			flag(w, MarchM5)
		}
	}
	return res
}

// resolve applies any decoder aliasing to a word index.
func (a *Array) resolve(w int) int {
	if a.alias == nil {
		return w
	}
	return int(a.alias[w])
}

// ModeOf interprets a march diagnosis: a word failing the all-ones reads
// only (M2/M4) behaves like stuck-at-0 cells; failing the all-zero reads
// only (M1/M3/M5) like stuck-at-1; failing both is multi-bit or unstable;
// asymmetric single-element failures are the decoder/coupling signature.
func (r *MarchResult) ModeOf(w int) sram.FailureMode {
	el := r.Elements[w]
	zeroReads := el & (MarchM1 | MarchM3 | MarchM5)
	oneReads := el & (MarchM2 | MarchM4)
	switch {
	case zeroReads != 0 && oneReads != 0:
		return sram.ReadFailure // unstable/multi-bit: dominant read-disturb class
	case oneReads != 0:
		return sram.WriteFailure // cannot hold/reach ones: write-side
	default:
		return sram.HoldFailure // loses zeros: hold-side
	}
}
