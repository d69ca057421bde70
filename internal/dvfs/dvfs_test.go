package dvfs

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTableMatchesPaper(t *testing.T) {
	// Table II, verbatim.
	want := []struct {
		mv      int
		mhz     float64
		log10pf float64 // math.Inf(-1) for Pfail 0
	}{
		{760, 1607, math.Inf(-1)},
		{560, 1089, -4.0},
		{520, 958, -3.5},
		{480, 818, -3.0},
		{440, 638, -2.5},
		{400, 475, -2.0},
	}
	pts := OperatingPoints()
	if len(pts) != len(want) {
		t.Fatalf("got %d operating points, want %d", len(pts), len(want))
	}
	for i, w := range want {
		p := pts[i]
		if p.VoltageMV != w.mv || p.FreqMHz != w.mhz {
			t.Errorf("point %d = %v, want %dmV/%vMHz", i, p, w.mv, w.mhz)
		}
		if math.IsInf(w.log10pf, -1) {
			if p.PfailBit != 0 {
				t.Errorf("point %d Pfail = %v, want 0", i, p.PfailBit)
			}
			continue
		}
		if got := math.Log10(p.PfailBit); math.Abs(got-w.log10pf) > 1e-9 {
			t.Errorf("point %d log10(Pfail) = %v, want %v", i, got, w.log10pf)
		}
	}
}

func TestOperatingPointsIsACopy(t *testing.T) {
	a := OperatingPoints()
	a[0].VoltageMV = 1
	b := OperatingPoints()
	if b[0].VoltageMV != 760 {
		t.Error("OperatingPoints exposed internal state")
	}
}

func TestLowVoltagePoints(t *testing.T) {
	pts := LowVoltagePoints()
	if len(pts) != 5 {
		t.Fatalf("got %d low-voltage points, want 5", len(pts))
	}
	for _, p := range pts {
		if p.VoltageMV >= 760 {
			t.Errorf("low-voltage set contains %v", p)
		}
	}
	if pts[0].VoltageMV != 560 || pts[4].VoltageMV != 400 {
		t.Errorf("region of interest should span 560..400, got %v..%v", pts[0], pts[4])
	}
}

func TestNominal(t *testing.T) {
	n := Nominal()
	if n.VoltageMV != 760 || n.PfailBit != 0 {
		t.Errorf("Nominal = %+v", n)
	}
}

func TestPointAt(t *testing.T) {
	p, err := PointAt(400)
	if err != nil {
		t.Fatal(err)
	}
	if p.FreqMHz != 475 {
		t.Errorf("PointAt(400).FreqMHz = %v", p.FreqMHz)
	}
	if _, err := PointAt(123); err == nil {
		t.Error("PointAt(123) should error")
	}
}

func TestVoltage(t *testing.T) {
	if got, want := Nominal().Voltage(), 0.760; math.Abs(got-want) > 1e-12 {
		t.Errorf("Voltage = %v, want %v", got, want)
	}
}

func TestFreqModelReproducesTable(t *testing.T) {
	for _, p := range OperatingPoints() {
		got := FreqMHzAt(float64(p.VoltageMV))
		if math.Abs(got-p.FreqMHz)/p.FreqMHz > 1e-9 {
			t.Errorf("FreqMHzAt(%d) = %v, want %v", p.VoltageMV, got, p.FreqMHz)
		}
	}
}

func TestFO4MonotoneInVoltage(t *testing.T) {
	// Lower voltage -> slower gates -> larger FO4 delay.
	prev := FO4DelayPS(900)
	for v := 890.0; v >= 350; v -= 10 {
		cur := FO4DelayPS(v)
		if cur < prev {
			t.Fatalf("FO4 not monotone: FO4(%v)=%v < FO4(%v)=%v", v, cur, v+10, prev)
		}
		prev = cur
	}
}

func TestFreqInterpolationBetweenPoints(t *testing.T) {
	// Between 480 and 440 the frequency must lie between the endpoints.
	f := FreqMHzAt(460)
	if f <= 638 || f >= 818 {
		t.Errorf("FreqMHzAt(460) = %v, want in (638, 818)", f)
	}
}

func TestFreqExtrapolation(t *testing.T) {
	if f := FreqMHzAt(800); f <= 1607 {
		t.Errorf("FreqMHzAt(800) = %v, want > 1607", f)
	}
	f := FreqMHzAt(380)
	if f >= 475 || f <= 0 {
		t.Errorf("FreqMHzAt(380) = %v, want in (0, 475)", f)
	}
}

func TestEnergyScaling(t *testing.T) {
	nom := Nominal()
	p400, _ := PointAt(400)
	dyn := ScaleDynamicEnergy(p400, nom)
	want := (0.4 / 0.76) * (0.4 / 0.76)
	if math.Abs(dyn-want) > 1e-12 {
		t.Errorf("ScaleDynamicEnergy = %v, want %v", dyn, want)
	}
	st := ScaleStaticPower(p400, nom)
	if math.Abs(st-0.4/0.76) > 1e-12 {
		t.Errorf("ScaleStaticPower = %v, want %v", st, 0.4/0.76)
	}
	if got := ScaleDynamicEnergy(nom, nom); got != 1 {
		t.Errorf("self scaling = %v, want 1", got)
	}
}

func TestScalingMonotoneProperty(t *testing.T) {
	nom := Nominal()
	f := func(mv uint16) bool {
		v := 300 + int(mv)%600 // 300..899 mV
		p := OperatingPoint{VoltageMV: v}
		dyn := ScaleDynamicEnergy(p, nom)
		st := ScaleStaticPower(p, nom)
		// Dynamic scales faster than static below nominal, slower above... in
		// fact dyn = st^2, always.
		return math.Abs(dyn-st*st) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringer(t *testing.T) {
	if got := Nominal().String(); got != "760mV/1607MHz" {
		t.Errorf("String = %q", got)
	}
}
