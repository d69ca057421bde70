package faultmap

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dvfs"
)

func TestNewIsFaultFree(t *testing.T) {
	m := New(100)
	if m.Words() != 100 {
		t.Fatalf("Words = %d", m.Words())
	}
	if m.CountDefective() != 0 {
		t.Errorf("new map has %d defects", m.CountDefective())
	}
	if m.FaultFreeWords() != 100 {
		t.Errorf("FaultFreeWords = %d", m.FaultFreeWords())
	}
}

func TestNewPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) should panic")
		}
	}()
	New(0)
}

func TestSetAndQuery(t *testing.T) {
	m := New(130) // crosses a uint64 boundary
	for _, w := range []int{0, 63, 64, 129} {
		m.SetDefective(w, true)
		if !m.Defective(w) {
			t.Errorf("word %d should be defective", w)
		}
	}
	if m.CountDefective() != 4 {
		t.Errorf("CountDefective = %d, want 4", m.CountDefective())
	}
	m.SetDefective(64, false)
	if m.Defective(64) {
		t.Error("word 64 should be fault-free after clear")
	}
	if m.CountDefective() != 3 {
		t.Errorf("CountDefective = %d, want 3", m.CountDefective())
	}
}

func TestOutOfRangeFailsSafe(t *testing.T) {
	m := New(10)
	if !m.Defective(-1) || !m.Defective(10) {
		t.Error("out-of-range words must report defective")
	}
}

func TestSetDefectivePanicsOutOfRange(t *testing.T) {
	m := New(10)
	defer func() {
		if recover() == nil {
			t.Error("SetDefective(10) should panic")
		}
	}()
	m.SetDefective(10, true)
}

func TestBlockMask(t *testing.T) {
	m := New(24)
	m.SetDefective(8, true)  // block 1, word 0
	m.SetDefective(15, true) // block 1, word 7
	if got := m.BlockMask(0); got != 0 {
		t.Errorf("BlockMask(0) = %08b, want 0", got)
	}
	if got := m.BlockMask(1); got != 0b10000001 {
		t.Errorf("BlockMask(1) = %08b, want 10000001", got)
	}
}

func TestChunks(t *testing.T) {
	m := New(12)
	// Defects at 3 and 7: chunks [0,3), [4,7), [8,12).
	m.SetDefective(3, true)
	m.SetDefective(7, true)
	got := m.Chunks()
	want := []Chunk{{0, 3}, {4, 3}, {8, 4}}
	if len(got) != len(want) {
		t.Fatalf("Chunks = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("chunk %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestChunksEdges(t *testing.T) {
	all := New(4)
	if got := all.Chunks(); len(got) != 1 || got[0] != (Chunk{0, 4}) {
		t.Errorf("fault-free Chunks = %v", got)
	}
	none := New(3)
	for w := 0; w < 3; w++ {
		none.SetDefective(w, true)
	}
	if got := none.Chunks(); len(got) != 0 {
		t.Errorf("all-defective Chunks = %v, want empty", got)
	}
}

func TestRunLengthAt(t *testing.T) {
	m := New(10)
	m.SetDefective(4, true)
	tests := []struct{ w, want int }{{0, 4}, {3, 1}, {4, 0}, {5, 5}, {9, 1}}
	for _, tt := range tests {
		if got := m.RunLengthAt(tt.w); got != tt.want {
			t.Errorf("RunLengthAt(%d) = %d, want %d", tt.w, got, tt.want)
		}
	}
}

func TestChunksPartitionProperty(t *testing.T) {
	// Chunk lengths plus defect count always equals total words, and
	// chunks are separated by at least one defective word.
	f := func(seed int64, defectPct uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := float64(defectPct%100) / 100
		m := New(256)
		for w := 0; w < 256; w++ {
			if rng.Float64() < p {
				m.SetDefective(w, true)
			}
		}
		sum := 0
		prevEnd := -1
		for _, c := range m.Chunks() {
			if c.Len <= 0 || c.Start <= prevEnd {
				return false
			}
			for w := c.Start; w < c.Start+c.Len; w++ {
				if m.Defective(w) {
					return false
				}
			}
			prevEnd = c.Start + c.Len // position after chunk; next start must be > this-1
			sum += c.Len
		}
		return sum == m.FaultFreeWords()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The rate checks draw statMaps fixed-seed maps of statWords words at
// every non-zero Table II Pfail, so each voltage counts defects over
// 2^19 words. If the generator is right, the count is Binomial(2^19, q)
// with q = 1-(1-p)^32, and it falls outside binomialWindow with
// probability at most statAlpha: each check raises a false alarm at most
// once in a million seedings. The widest window (q = 0.275 at 400 mV) is
// about ±0.003 in the defective fraction.
const (
	statMaps  = 64
	statWords = 8192
	statAlpha = 1e-6
)

func TestGenerateStatistics(t *testing.T) {
	for _, op := range dvfs.OperatingPoints() {
		if op.PfailBit == 0 {
			continue
		}
		defective := 0
		for seed := int64(1); seed <= statMaps; seed++ {
			defective += Generate(statWords, op.PfailBit, rand.New(rand.NewSource(seed))).CountDefective()
		}
		checkWordDefectRate(t, "Generate", op, defective)
	}
}

// checkWordDefectRate fails when defective, the count over
// statMaps*statWords words at op, lies outside the exact binomial
// window around 1-(1-p)^32.
func checkWordDefectRate(t *testing.T, what string, op dvfs.OperatingPoint, defective int) {
	t.Helper()
	n := statMaps * statWords
	q := 1 - math.Pow(1-op.PfailBit, 32)
	lo, hi := binomialWindow(n, q, statAlpha)
	if defective < lo || defective > hi {
		t.Errorf("%s at %d mV (Pfail %.3g): %d of %d words defective, want [%d, %d] (q = %.5f, false-alarm rate %g)",
			what, op.VoltageMV, op.PfailBit, defective, n, lo, hi, q, statAlpha)
	}
}

// binomialWindow returns the narrowest [lo, hi] with P(K < lo) <= alpha/2
// and P(K > hi) <= alpha/2 for K ~ Binomial(n, q), 0 < q < 1. It sums
// the exact pmf, stepped out from the mode by the ratio of successive
// terms until a term falls below 1e-300.
func binomialWindow(n int, q, alpha float64) (lo, hi int) {
	mode := int(float64(n+1) * q)
	lgN, _ := math.Lgamma(float64(n + 1))
	lgK, _ := math.Lgamma(float64(mode + 1))
	lgNK, _ := math.Lgamma(float64(n - mode + 1))
	peak := math.Exp(lgN - lgK - lgNK + float64(mode)*math.Log(q) + float64(n-mode)*math.Log1p(-q))
	odds := q / (1 - q)
	below := []float64{} // pmf(mode-1), pmf(mode-2), ...
	for k, pk := mode, peak; k > 0; k-- {
		if pk *= float64(k) / float64(n-k+1) / odds; pk < 1e-300 {
			break
		}
		below = append(below, pk)
	}
	above := []float64{} // pmf(mode+1), pmf(mode+2), ...
	for k, pk := mode, peak; k < n; k++ {
		if pk *= float64(n-k) / float64(k+1) * odds; pk < 1e-300 {
			break
		}
		above = append(above, pk)
	}
	lo, hi = mode-len(below), mode+len(above)
	for tail, i := 0.0, len(below)-1; i >= 0; i-- {
		if tail += below[i]; tail > alpha/2 {
			break
		}
		lo++
	}
	for tail, i := 0.0, len(above)-1; i >= 0; i-- {
		if tail += above[i]; tail > alpha/2 {
			break
		}
		hi--
	}
	return lo, hi
}

func TestGenerateExtremes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if m := Generate(64, 0, rng); m.CountDefective() != 0 {
		t.Error("p=0 should give a fault-free map")
	}
	if m := Generate(64, 1, rng); m.CountDefective() != 64 {
		t.Error("p=1 should make every word defective")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(512, 1e-2, rand.New(rand.NewSource(7)))
	b := Generate(512, 1e-2, rand.New(rand.NewSource(7)))
	if !a.Equal(b) {
		t.Error("same seed must give identical maps")
	}
	c := Generate(512, 1e-2, rand.New(rand.NewSource(8)))
	if a.Equal(c) {
		t.Error("different seeds should differ (overwhelmingly)")
	}
}

func TestSeriesNesting(t *testing.T) {
	// Maps at decreasing voltage (increasing pfail) must be nested.
	s := NewSeries(4096, rand.New(rand.NewSource(3)))
	var prev *Map
	for _, op := range dvfs.OperatingPoints() {
		m := s.MapAt(op.PfailBit)
		if prev != nil && !m.Subsumes(prev) {
			t.Errorf("map at %d mV does not subsume the map at the next higher voltage", op.VoltageMV)
		}
		prev = m
	}
}

// TestSeriesMatchesDirectGeneration checks that the per-word
// min-of-32-uniforms shortcut gives every map the marginal defect rate
// Generate draws: 1-(1-p)^32 at every non-zero Table II Pfail, within
// the same exact binomial window.
func TestSeriesMatchesDirectGeneration(t *testing.T) {
	series := make([]*Series, statMaps)
	for i := range series {
		series[i] = NewSeries(statWords, rand.New(rand.NewSource(int64(i+1))))
	}
	for _, op := range dvfs.OperatingPoints() {
		if op.PfailBit == 0 {
			continue
		}
		defective := 0
		for _, s := range series {
			defective += s.MapAt(op.PfailBit).CountDefective()
		}
		checkWordDefectRate(t, "Series.MapAt", op, defective)
	}
}

func TestSeriesZeroPfail(t *testing.T) {
	s := NewSeries(128, rand.New(rand.NewSource(5)))
	if m := s.MapAt(0); m.CountDefective() != 0 {
		t.Error("pfail 0 must give a fault-free map")
	}
}

func TestCloneIndependence(t *testing.T) {
	m := New(64)
	m.SetDefective(5, true)
	c := m.Clone()
	c.SetDefective(6, true)
	if m.Defective(6) {
		t.Error("Clone is not independent")
	}
	if !c.Defective(5) {
		t.Error("Clone lost defects")
	}
}

func TestSubsumes(t *testing.T) {
	a, b := New(64), New(64)
	a.SetDefective(1, true)
	a.SetDefective(2, true)
	b.SetDefective(1, true)
	if !a.Subsumes(b) {
		t.Error("a should subsume b")
	}
	if b.Subsumes(a) {
		t.Error("b should not subsume a")
	}
	if !a.Subsumes(a) {
		t.Error("Subsumes must be reflexive")
	}
	c := New(32)
	if a.Subsumes(c) {
		t.Error("different sizes must not subsume")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, words := range []int{1, 63, 64, 65, 8192} {
		m := Generate(words, 1e-2, rng)
		data, err := m.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Map
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("words=%d: %v", words, err)
		}
		if !got.Equal(m) {
			t.Errorf("words=%d: round trip mismatch", words)
		}
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"short":       []byte("FMA"),
		"bad magic":   append([]byte("XMAP"), make([]byte, 16)...),
		"bad version": {'F', 'M', 'A', 'P', 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
		"zero words":  {'F', 'M', 'A', 'P', 1, 0, 0, 0, 0, 0, 0, 0},
		"bad length":  {'F', 'M', 'A', 'P', 1, 0, 0, 0, 64, 0, 0, 0, 1, 2, 3},
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			var m Map
			if err := m.UnmarshalBinary(data); err == nil {
				t.Error("expected error")
			}
		})
	}
}

func TestUnmarshalRejectsStrayBits(t *testing.T) {
	m := New(10)
	data, _ := m.MarshalBinary()
	data[len(data)-1] = 0x80 // bit 63 of the only limb: beyond word 9
	var got Map
	if err := got.UnmarshalBinary(data); err == nil {
		t.Error("stray bits beyond word count must be rejected")
	}
}

func TestMarshalPropertyRoundTrip(t *testing.T) {
	f := func(seed int64, sz uint16) bool {
		words := int(sz%2048) + 1
		m := Generate(words, 0.1, rand.New(rand.NewSource(seed)))
		data, err := m.MarshalBinary()
		if err != nil {
			return false
		}
		var got Map
		if err := got.UnmarshalBinary(data); err != nil {
			return false
		}
		return got.Equal(m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
