package faultmap

import (
	"math/rand"
	"testing"

	"repro/internal/sram"
)

func TestMarchRecoversStuckFaults(t *testing.T) {
	model := sram.NewModel()
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		want := Generate(2048, 1e-2, rng)
		arr := NewArray(want, model, rng)
		got := MarchCMinus(arr)
		if !got.Map.Equal(want) {
			t.Errorf("seed %d: March C- map differs (got %d, want %d defects)",
				seed, got.Map.CountDefective(), want.CountDefective())
		}
	}
}

func TestMarchCleanArray(t *testing.T) {
	arr := NewArray(New(512), sram.NewModel(), rand.New(rand.NewSource(1)))
	res := MarchCMinus(arr)
	if res.Map.CountDefective() != 0 {
		t.Errorf("March found %d defects in a clean array", res.Map.CountDefective())
	}
}

// withDecoderFault makes accesses to word from alias to word to,
// modelling an address-decoder defect.
func withDecoderFault(a *Array, from, to int) {
	if a.alias == nil {
		a.alias = make([]int32, len(a.data))
		for i := range a.alias {
			a.alias[i] = int32(i)
		}
	}
	a.alias[from] = int32(to)
}

func TestMarchCatchesDecoderFaultCheckerboardMisses(t *testing.T) {
	// The structural difference between the two tests: with a decoder
	// fault aliasing word 100 onto word 200, the checkerboard pass writes
	// the same pattern everywhere, so aliased reads still match and the
	// fault escapes. March C- holds a mixed 0/1 state while it walks, so
	// the alias is exposed.
	mkArr := func() *Array {
		a := NewArray(New(512), sram.NewModel(), rand.New(rand.NewSource(2)))
		withDecoderFault(a, 100, 200)
		return a
	}
	if got := RunBIST(mkArr()); got.CountDefective() != 0 {
		t.Fatalf("checkerboard unexpectedly caught the decoder fault (%d defects) — the march comparison is moot",
			got.CountDefective())
	}
	res := MarchCMinus(mkArr())
	if !res.Map.Defective(100) && !res.Map.Defective(200) {
		t.Error("March C- missed the decoder fault entirely")
	}
}

func TestMarchElementsDiagnosis(t *testing.T) {
	// A word stuck at all-ones fails every all-zero read (M1/M3/M5) but
	// passes the all-one reads.
	a := NewArray(New(64), sram.NewModel(), rand.New(rand.NewSource(3)))
	a.stuck[5] = stuckBits{mask: 0xFFFFFFFF, value: 0xFFFFFFFF}
	res := MarchCMinus(a)
	if !res.Map.Defective(5) {
		t.Fatal("stuck-at-ones word not flagged")
	}
	el := res.Elements[5]
	if el&(MarchM1|MarchM3|MarchM5) == 0 {
		t.Errorf("stuck-at-ones should fail a zero-read element, got %05b", el)
	}
	if el&(MarchM2|MarchM4) != 0 {
		t.Errorf("stuck-at-ones should pass the one-read elements, got %05b", el)
	}
	if mode := res.ModeOf(5); mode != sram.HoldFailure {
		t.Errorf("ModeOf = %v, want hold-class", mode)
	}

	// Stuck at all-zeros: the mirror image.
	b := NewArray(New(64), sram.NewModel(), rand.New(rand.NewSource(4)))
	b.stuck[9] = stuckBits{mask: 0xFFFFFFFF, value: 0}
	res = MarchCMinus(b)
	if mode := res.ModeOf(9); mode != sram.WriteFailure {
		t.Errorf("stuck-at-zero ModeOf = %v, want write-class", mode)
	}

	// A mixed-polarity defect fails both read polarities.
	c := NewArray(New(64), sram.NewModel(), rand.New(rand.NewSource(5)))
	c.stuck[7] = stuckBits{mask: 0b11, value: 0b01}
	res = MarchCMinus(c)
	if mode := res.ModeOf(7); mode != sram.ReadFailure {
		t.Errorf("mixed defect ModeOf = %v, want read/unstable class", mode)
	}
}

func TestMarchRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := Generate(256, 1e-2, rng)
	arr := NewArray(m, sram.NewModel(), rng)
	a := MarchCMinus(arr)
	b := MarchCMinus(arr)
	if !a.Map.Equal(b.Map) {
		t.Error("March C- must be repeatable")
	}
}
