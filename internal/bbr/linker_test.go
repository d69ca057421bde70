package bbr

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/faultmap"
	"repro/internal/program"
)

const icacheWords = 32 * 1024 / 4

func relocatable(t *testing.T, seed int64, blocks int) *program.Program {
	t.Helper()
	src := program.Generate(program.GenConfig{Blocks: blocks}, rand.New(rand.NewSource(seed)))
	out, _, err := Transform(src, DefaultTransformConfig())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLinkFaultFreeIsDense(t *testing.T) {
	p := relocatable(t, 1, 100)
	fm := faultmap.New(icacheWords)
	pl, err := Link(p, fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.GapWords != 0 {
		t.Errorf("GapWords = %d on a fault-free map, want 0", pl.GapWords)
	}
	// Dense: each block starts where the previous ended.
	addr := uint64(0)
	for i := range p.Blocks {
		if got := pl.BlockAddr(program.BlockID(i)); got != addr {
			t.Fatalf("block %d at %#x, want %#x", i, got, addr)
		}
		addr += uint64(4 * p.Blocks[i].Footprint())
	}
}

func TestLinkAvoidsDefectiveWords(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		fm := faultmap.Generate(icacheWords, 1e-2, rng) // 400 mV
		p := relocatable(t, seed, 400)
		pl, err := Link(p, fm, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range p.Blocks {
			for _, w := range pl.PlacedWords(p, program.BlockID(i)) {
				if fm.Defective(w) {
					t.Fatalf("seed %d: block %d placed on defective physical word %d", seed, i, w)
				}
			}
		}
	}
}

func TestLinkBlocksDoNotOverlapWithinLap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fm := faultmap.Generate(icacheWords, 1e-2, rng)
	p := relocatable(t, 7, 200)
	pl, err := Link(p, fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Memory addresses are strictly increasing and non-overlapping.
	end := uint64(0)
	for i := range p.Blocks {
		start := pl.BlockAddr(program.BlockID(i))
		if start < end {
			t.Fatalf("block %d at %#x overlaps previous ending at %#x", i, start, end)
		}
		end = start + uint64(4*p.Blocks[i].Footprint())
	}
}

func TestLinkMatchesFirstFitSemantics(t *testing.T) {
	// Hand-constructed map: defects force specific placements. Image
	// positions and physical positions coincide for slot < Sets() words
	// in way 0... use DMImageWordIndex to set defects at chosen image
	// positions instead.
	cfg := cache.L1Config("L1I")
	fm := faultmap.New(icacheWords)
	// Make image positions 2..5 defective: first chunk is [0,2), then
	// [6, ...).
	for i := 2; i <= 5; i++ {
		fm.SetDefective(cfg.Geometry().DMImageWordIndex(i), true)
	}
	p := &program.Program{Blocks: []program.BasicBlock{
		{Size: 2, Term: program.TermJump, Target: 1, Kinds: []program.InstrKind{program.KindALU, program.KindBranch}},
		{Size: 3, Term: program.TermExit, Kinds: make([]program.InstrKind, 3)},
	}}
	pl, err := Link(p, fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Block 0 (2 words) fits at image 0. Block 1 (3 words) cannot start
	// at 2 (defective); first fit is image position 6 -> byte 24.
	if got := pl.BlockAddr(0); got != 0 {
		t.Errorf("block 0 at %#x, want 0", got)
	}
	if got := pl.BlockAddr(1); got != 24 {
		t.Errorf("block 1 at %#x, want 0x18", got)
	}
	if pl.GapWords != 4 {
		t.Errorf("GapWords = %d, want 4", pl.GapWords)
	}
}

func TestLinkWrapsAroundCache(t *testing.T) {
	// A program bigger than the cache must wrap and share chunks.
	p := relocatable(t, 9, 3000) // ~3000 blocks * ~6.5 words >> 8192 words
	fm := faultmap.New(icacheWords)
	pl, err := Link(p, fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Laps < 2 {
		t.Errorf("Laps = %d, want >= 2 for a program larger than the cache", pl.Laps)
	}
}

func TestLinkUnplaceable(t *testing.T) {
	// Every 4th word defective: max chunk is 3 words; a 5-word block
	// cannot be placed.
	fm := faultmap.New(icacheWords)
	cfg := cache.L1Config("L1I")
	for i := 0; i < icacheWords; i += 4 {
		fm.SetDefective(cfg.Geometry().DMImageWordIndex(i), true)
	}
	p := &program.Program{Blocks: []program.BasicBlock{
		{Size: 5, Term: program.TermExit, Kinds: make([]program.InstrKind, 5)},
		{Size: 1, Term: program.TermExit, Kinds: make([]program.InstrKind, 1)},
	}}
	_, err := Link(p, fm, 0)
	if !errors.Is(err, ErrUnplaceable) {
		t.Errorf("err = %v, want ErrUnplaceable", err)
	}
}

func TestLinkRejectsBadInputs(t *testing.T) {
	p := relocatable(t, 1, 10)
	fm := faultmap.New(icacheWords)
	if _, err := Link(p, fm, 2); err == nil {
		t.Error("unaligned base must be rejected")
	}
	if _, err := Link(p, faultmap.New(100), 0); err == nil {
		t.Error("wrong-size fault map must be rejected")
	}
}

func TestLinkNonZeroBase(t *testing.T) {
	p := relocatable(t, 3, 50)
	fm := faultmap.New(icacheWords)
	pl, err := Link(p, fm, 0x10000)
	if err != nil {
		t.Fatal(err)
	}
	if got := pl.BlockAddr(0); got != 0x10000 {
		t.Errorf("block 0 at %#x, want 0x10000", got)
	}
}

func TestRunLengthsWithWrap(t *testing.T) {
	defects := map[int]bool{2: true, 5: true}
	runs := runLengthsWithWrap(8, func(i int) bool { return defects[i] })
	// Layout: F F D F F D F F ; wrap joins [6,7] with [0,1].
	want := []int{2, 1, 0, 2, 1, 0, 4, 3}
	for i, w := range want {
		if runs[i] != w {
			t.Errorf("runs[%d] = %d, want %d", i, runs[i], w)
		}
	}
}

func TestRunLengthsAllFaultFree(t *testing.T) {
	runs := runLengthsWithWrap(6, func(int) bool { return false })
	for i, r := range runs {
		if r != 6 {
			t.Errorf("runs[%d] = %d, want 6 (capped at n)", i, r)
		}
	}
}

func TestRunLengthsAllDefective(t *testing.T) {
	runs := runLengthsWithWrap(4, func(int) bool { return true })
	for i, r := range runs {
		if r != 0 {
			t.Errorf("runs[%d] = %d, want 0", i, r)
		}
	}
}

func TestRunLengthsHeadDefective(t *testing.T) {
	// D F F F: no wrap extension since head run is 0.
	runs := runLengthsWithWrap(4, func(i int) bool { return i == 0 })
	want := []int{0, 3, 2, 1}
	for i, w := range want {
		if runs[i] != w {
			t.Errorf("runs[%d] = %d, want %d", i, runs[i], w)
		}
	}
}

func TestLinkDeterministic(t *testing.T) {
	p := relocatable(t, 11, 150)
	rng := rand.New(rand.NewSource(11))
	fm := faultmap.Generate(icacheWords, 1e-2, rng)
	a, err := Link(p, fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Link(p, fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Blocks {
		if a.BlockAddr(program.BlockID(i)) != b.BlockAddr(program.BlockID(i)) {
			t.Fatal("Link is not deterministic")
		}
	}
}

func TestLinkBestFitAvoidsDefects(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		rng := rand.New(rand.NewSource(seed))
		fm := faultmap.Generate(icacheWords, 1e-2, rng)
		p := relocatable(t, seed, 300)
		pl, err := LinkBestFit(p, fm, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i := range p.Blocks {
			for _, w := range pl.PlacedWords(p, program.BlockID(i)) {
				if fm.Defective(w) {
					t.Fatalf("seed %d: best-fit placed block %d on defective word %d", seed, i, w)
				}
			}
		}
	}
}

func TestLinkBestFitNoOverlapWithinLap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fm := faultmap.Generate(icacheWords, 1e-2, rng)
	p := relocatable(t, 3, 250)
	pl, err := LinkBestFit(p, fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Within one lap, no two blocks may overlap in the image.
	type span struct{ lap, start, end uint64 }
	var spans []span
	for i := range p.Blocks {
		addr := pl.BlockAddr(program.BlockID(i)) / 4
		spans = append(spans, span{addr / uint64(icacheWords), addr % uint64(icacheWords),
			addr%uint64(icacheWords) + uint64(p.Blocks[i].Footprint())})
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.lap == b.lap && a.start < b.end && b.start < a.end {
				t.Fatalf("blocks %d and %d overlap in lap %d", i, j, a.lap)
			}
		}
	}
}

func TestLinkBestFitPacksTighterThanFirstFit(t *testing.T) {
	// The ablation's premise: best-fit wastes fewer words, so it spans
	// fewer (or equal) laps than Algorithm 1 under the same map.
	rng := rand.New(rand.NewSource(4))
	fm := faultmap.Generate(icacheWords, 1e-2, rng)
	p := relocatable(t, 4, 600) // large program: packing pressure
	first, err := Link(p, fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	best, err := LinkBestFit(p, fm, 0)
	if err != nil {
		t.Fatal(err)
	}
	if best.Laps > first.Laps {
		t.Errorf("best-fit used %d laps, first-fit %d", best.Laps, first.Laps)
	}
}

func TestLinkBestFitUnplaceable(t *testing.T) {
	fm := faultmap.New(icacheWords)
	cfg := cache.L1Config("L1I")
	for i := 0; i < icacheWords; i += 4 {
		fm.SetDefective(cfg.Geometry().DMImageWordIndex(i), true)
	}
	p := &program.Program{Blocks: []program.BasicBlock{
		{Size: 5, Term: program.TermExit, Kinds: make([]program.InstrKind, 5)},
	}}
	if _, err := LinkBestFit(p, fm, 0); !errors.Is(err, ErrUnplaceable) {
		t.Errorf("err = %v, want ErrUnplaceable", err)
	}
}

func TestLinkBestFitValidation(t *testing.T) {
	p := relocatable(t, 1, 10)
	if _, err := LinkBestFit(p, faultmap.New(icacheWords), 2); err == nil {
		t.Error("unaligned base must fail")
	}
	if _, err := LinkBestFit(p, faultmap.New(64), 0); err == nil {
		t.Error("wrong-size map must fail")
	}
}
