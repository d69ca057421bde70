package faultmap

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dvfs"
	"repro/internal/sram"
)

func TestMultiBitFailProb(t *testing.T) {
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 0},
		{1, 1},
		{1e-2, 1 - math.Pow(0.99, 32) - 32*1e-2*math.Pow(0.99, 31)},
	}
	for _, tt := range tests {
		if got := MultiBitFailProb(tt.p); math.Abs(got-tt.want) > 1e-12 {
			t.Errorf("MultiBitFailProb(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestMultiBitAlwaysBelowWordFail(t *testing.T) {
	// SECDED can only help: the uncorrectable rate is strictly below the
	// raw word-defect rate for any p in (0,1).
	for _, p := range []float64{1e-4, 1e-3, 1e-2, 0.05} {
		raw := sram.GroupFail(p, 32)
		ecc := MultiBitFailProb(p)
		if ecc >= raw {
			t.Errorf("p=%v: multi-bit %v >= raw %v", p, ecc, raw)
		}
	}
}

func TestECCOverwhelmedAtDeepVoltage(t *testing.T) {
	// The paper's claim quantified: at 560 mV (p=1e-4) ECC's residual
	// defect rate is negligible (~5e-6); at 400 mV (p=1e-2) it is ~4% —
	// four orders of magnitude worse, squarely in word-disable territory.
	at560 := MultiBitFailProb(1e-4)
	at400 := MultiBitFailProb(1e-2)
	if at560 > 1e-5 {
		t.Errorf("residual at 560mV = %e, want < 1e-5", at560)
	}
	if at400 < 0.035 || at400 > 0.045 {
		t.Errorf("residual at 400mV = %v, want ~0.041", at400)
	}
	if at400/at560 < 1e3 {
		t.Errorf("deep scaling should blow up the residual rate by >1000x, got %vx", at400/at560)
	}
}

// TestGenerateSECDEDStatistics draws SECDED maps at every non-zero
// Table II Pfail, as TestGenerateStatistics does, and checks the
// uncorrectable-word count against two or more of a word's 32 bits
// failing, the rate MultiBitFailProb claims.
func TestGenerateSECDEDStatistics(t *testing.T) {
	for _, op := range dvfs.OperatingPoints() {
		p := op.PfailBit
		if p == 0 {
			continue
		}
		defective := 0
		for seed := int64(1); seed <= statMaps; seed++ {
			defective += GenerateSECDED(statWords, p, rand.New(rand.NewSource(seed))).CountDefective()
		}
		checkDefectRate(t, "GenerateSECDED", op, 1-math.Pow(1-p, 32)-32*p*math.Pow(1-p, 31), defective)
	}
	if clean := GenerateSECDED(100, 0, rand.New(rand.NewSource(1))); clean.CountDefective() != 0 {
		t.Error("p=0 must give a clean map")
	}
}
