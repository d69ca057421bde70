package faultmap

import (
	"math"
	"math/rand"
)

// Multi-bit defect statistics, used by ECC-based protection schemes
// (Section III-B's related-work class): a per-word SECDED code corrects
// one hard-failed bit per 32-bit word, so a word is *uncorrectable* only
// when two or more of its bits fail.

// MultiBitFailProb returns the probability that a 32-bit word has two or
// more failing bits at the given per-bit failure probability — the
// residual defect rate seen by a SECDED-protected array.
func MultiBitFailProb(pfailBit float64) float64 {
	if pfailBit <= 0 {
		return 0
	}
	if pfailBit >= 1 {
		return 1
	}
	// 1 - P(0 failures) - P(exactly 1 failure).
	p0 := math.Pow(1-pfailBit, 32)
	p1 := 32 * pfailBit * math.Pow(1-pfailBit, 31)
	p := 1 - p0 - p1
	if p < 0 {
		return 0
	}
	return p
}

// GenerateSECDED draws the fault map seen through a per-word SECDED code:
// a word is marked defective only when it has at least two failing bits
// (single-bit defects are corrected in-line by the decoder). The check
// bits themselves are assumed protected by the same code (their failures
// fold into the 39-bit codeword; for simplicity the 32-bit data-failure
// statistics are used — a slight favor to ECC, consistent with how the
// paper favors its other baselines).
func GenerateSECDED(words int, pfailBit float64, rng *rand.Rand) *Map {
	m := New(words)
	p := MultiBitFailProb(pfailBit)
	for w := 0; w < words; w++ {
		if rng.Float64() < p {
			m.SetDefective(w, true)
		}
	}
	return m
}
