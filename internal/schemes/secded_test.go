package schemes

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
)

func TestSECDEDBasics(t *testing.T) {
	s, err := NewSECDED(cleanMap(), next(t))
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "SECDED" || s.HitLatency() != 3 {
		t.Errorf("name=%q lat=%d, want SECDED/3", s.Name(), s.HitLatency())
	}
	s.Read(0x40)
	if out := s.Read(0x40); !out.Hit || out.Latency != 3 {
		t.Errorf("warm read = %+v (correction stage costs a cycle)", out)
	}
	if out := s.Fetch(0x40); !out.Hit {
		t.Error("Fetch should share the Read path")
	}
}

func TestSECDEDRejectsBadInputs(t *testing.T) {
	if _, err := NewSECDED(faultmap.New(10), next(t)); err == nil {
		t.Error("wrong-size map must be rejected")
	}
	if _, err := NewSECDED(cleanMap(), nil); err == nil {
		t.Error("nil next level must be rejected")
	}
}

func TestSECDEDUncorrectableWordAlwaysMisses(t *testing.T) {
	cfg := cache.L1Config("x")
	mb := cleanMap()
	for way := 0; way < 4; way++ {
		mb.SetDefective(cfg.Geometry().FrameWordIndex(0, way, 2), true)
	}
	n := next(t)
	s, _ := NewSECDED(mb, n)
	addr := uint64(2 * 4)
	for i := 0; i < 4; i++ {
		if out := s.Read(addr); out.Hit {
			t.Fatal("uncorrectable word must never hit")
		}
	}
	if n.DemandReads() != 4 {
		t.Errorf("L2 reads = %d, want 4", n.DemandReads())
	}
	if s.Stats().DefectMisses != 4 {
		t.Errorf("DefectMisses = %d", s.Stats().DefectMisses)
	}
}

func TestSECDEDWrite(t *testing.T) {
	n := next(t)
	s, _ := NewSECDED(cleanMap(), n)
	if out := s.Write(0x80); out.Hit {
		t.Error("write miss should not hit")
	}
	s.Read(0x80)
	if out := s.Write(0x84); !out.Hit {
		t.Error("write to resident correctable word should hit")
	}
	if n.WordWrites() != 2 {
		t.Errorf("WordWrites = %d", n.WordWrites())
	}
}

func TestSECDEDVsWdisResidualRates(t *testing.T) {
	// The ECC story end to end: at 560 mV SECDED's map is essentially
	// clean while word-disable's already carries defects; at 400 mV
	// SECDED's residual map approaches word-disable territory (4% vs
	// 27.5% of words).
	count := func(p float64, seed int64, gen func(int, float64, *rand.Rand) *faultmap.Map) int {
		return gen(l1Words, p, rand.New(rand.NewSource(seed))).CountDefective()
	}
	ecc560 := count(1e-4, 1, faultmap.GenerateSECDED)
	raw560 := count(1e-4, 1, faultmap.Generate)
	if ecc560 > raw560/4 {
		t.Errorf("at 560mV ECC residual (%d) should be far below raw (%d)", ecc560, raw560)
	}
	ecc400 := count(1e-2, 2, faultmap.GenerateSECDED)
	if ecc400 < 250 {
		t.Errorf("at 400mV ECC residual defects = %d, want hundreds (overwhelmed)", ecc400)
	}
}

func TestSECDEDImplementsInterfaces(t *testing.T) {
	var _ core.DataCache = (*WordDisable)(nil)
	var _ core.InstrCache = (*WordDisable)(nil)
}
