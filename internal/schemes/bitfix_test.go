package schemes

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/faultmap"
)

func TestBitFixBasics(t *testing.T) {
	b, err := NewBitFix(cleanMap(), next(t))
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "Bit-fix" || b.HitLatency() != 3 {
		t.Errorf("name=%q lat=%d", b.Name(), b.HitLatency())
	}
	b.Read(0x40)
	if out := b.Read(0x40); !out.Hit || out.Latency != 3 {
		t.Errorf("warm read = %+v", out)
	}
	if out := b.Fetch(0x40); !out.Hit {
		t.Error("fetch shares the read path")
	}
}

func TestBitFixRejectsBadInputs(t *testing.T) {
	if _, err := NewBitFix(faultmap.New(8), next(t)); err == nil {
		t.Error("wrong-size map must fail")
	}
	if _, err := NewBitFix(cleanMap(), nil); err == nil {
		t.Error("nil next must fail")
	}
}

func TestBitFixQuarterCapacitySacrificed(t *testing.T) {
	// Only 3 data ways per set: the fourth distinct block evicts.
	b, _ := NewBitFix(cleanMap(), next(t))
	stride := uint64(256 * 32)
	for i := uint64(0); i < 3; i++ {
		b.Read(i * stride)
	}
	b.Read(0) // block 0 MRU
	b.Read(3 * stride)
	if out := b.Read(0); !out.Hit {
		t.Error("MRU block evicted")
	}
	if out := b.Read(stride); out.Hit {
		t.Error("LRU block should have been evicted (capacity 75%)")
	}
}

func TestBitFixRepairsUpToBudget(t *testing.T) {
	cfg := cache.L1Config("x")
	fm := cleanMap()
	// Frame (0,0): exactly 2 defective words -> fully repaired.
	fm.SetDefective(cfg.Geometry().FrameWordIndex(0, 0, 1), true)
	fm.SetDefective(cfg.Geometry().FrameWordIndex(0, 0, 5), true)
	b, _ := NewBitFix(fm, next(t))
	// Occupy only frame 0 (one block) and touch the repaired words.
	b.Read(0x04)
	if out := b.Read(0x04); !out.Hit {
		t.Error("repaired word 1 should hit")
	}
	if out := b.Read(0x14); !out.Hit {
		t.Error("repaired word 5 should hit")
	}
}

func TestBitFixBudgetExceededActsLikeWdis(t *testing.T) {
	cfg := cache.L1Config("x")
	fm := cleanMap()
	// Three defective words in every data way of set 0: one word per
	// frame stays broken after the 2-word repair budget.
	for w := 0; w < 3; w++ {
		for _, word := range []int{1, 3, 6} {
			fm.SetDefective(cfg.Geometry().FrameWordIndex(0, w, word), true)
		}
	}
	n := next(t)
	b, _ := NewBitFix(fm, n)
	// repairMask clears the two lowest defective words (1, 3); word 6
	// stays defective in every frame.
	addr := uint64(6 * 4)
	b.Read(addr)
	for i := 0; i < 3; i++ {
		if out := b.Read(addr); out.Hit {
			t.Fatal("word beyond the repair budget must always miss")
		}
	}
	if out := b.Read(uint64(1 * 4)); !out.Hit {
		t.Error("repaired word 1 should hit")
	}
	if out := b.Read(uint64(3 * 4)); !out.Hit {
		t.Error("repaired word 3 should hit")
	}
}

func TestRepairMask(t *testing.T) {
	tests := []struct {
		fault   uint8
		repairs int
		want    uint8
	}{
		{0, 2, 0},
		{0b00000110, 2, 0},          // both repaired
		{0b01001010, 2, 0b01000000}, // lowest two repaired
		{0b11111111, 2, 0b11111100},
		{0b10000000, 0, 0b10000000},
	}
	for _, tt := range tests {
		if got := repairMask(tt.fault, tt.repairs); got != tt.want {
			t.Errorf("repairMask(%08b, %d) = %08b, want %08b", tt.fault, tt.repairs, got, tt.want)
		}
	}
}

func TestCoverableBitFixVoltageWall(t *testing.T) {
	// The paper: bit-fix holds to ~500 mV. Our model: at 520 mV
	// (p=1e-3.5) frames rarely exceed 2 defective words; at 400 mV
	// (p=1e-2, mean 2.2 defective words/frame) they almost always do.
	if !CoverableBitFix(cleanMap()) {
		t.Error("clean map must be coverable")
	}
	if CoverableBitFix(faultmap.New(8)) {
		t.Error("wrong-size map must not be coverable")
	}
	covered520 := 0
	for seed := int64(0); seed < 20; seed++ {
		fm := faultmap.Generate(l1Words, 3.16e-4, rand.New(rand.NewSource(seed))) // 520 mV
		if CoverableBitFix(fm) {
			covered520++
		}
	}
	if covered520 < 15 {
		t.Errorf("bit-fix covered only %d/20 dies at 520mV, want most", covered520)
	}
	for seed := int64(0); seed < 5; seed++ {
		if CoverableBitFix(mapAt400(seed)) {
			t.Error("bit-fix must not cover 400mV maps")
		}
	}
}
