package bbr_test

import (
	"fmt"

	"repro/internal/bbr"
	"repro/internal/cache"
	"repro/internal/faultmap"
	"repro/internal/program"
)

// The compiler pass of Figure 8: a fall-through block gains an explicit
// jump so the linker may relocate it freely.
func ExampleTransform() {
	src := &program.Program{Blocks: []program.BasicBlock{
		{Size: 3, Term: program.TermFall, Kinds: make([]program.InstrKind, 3)},
		{Size: 1, Term: program.TermExit, Kinds: make([]program.InstrKind, 1)},
	}}
	out, stats, err := bbr.Transform(src, bbr.DefaultTransformConfig())
	if err != nil {
		panic(err)
	}
	b := out.Blocks[0]
	fmt.Printf("inserted %d jump(s); block 0 is now a %d-word %v to block %d\n",
		stats.InsertedJumps, b.Size, b.Term, b.Target)
	// Output:
	// inserted 1 jump(s); block 0 is now a 4-word jump to block 1
}

// Algorithm 1: the linker skips defective chunks. With image positions
// 2..5 defective, a 3-word block cannot follow the first block directly
// and lands at position 6.
func ExampleLink() {
	cfg := cache.L1Config("L1I")
	fm := faultmap.New(cfg.Words())
	for i := 2; i <= 5; i++ {
		fm.SetDefective(cfg.Geometry().DMImageWordIndex(i), true)
	}
	p := &program.Program{Blocks: []program.BasicBlock{
		{Size: 2, Term: program.TermJump, Target: 1, Kinds: []program.InstrKind{program.KindALU, program.KindBranch}},
		{Size: 3, Term: program.TermExit, Kinds: make([]program.InstrKind, 3)},
	}}
	pl, err := bbr.Link(p, fm, 0)
	if err != nil {
		panic(err)
	}
	fmt.Printf("block 0 at byte %#x, block 1 at byte %#x, %d gap words\n",
		pl.BlockAddr(0), pl.BlockAddr(1), pl.GapWords)
	// Output:
	// block 0 at byte 0x0, block 1 at byte 0x18, 4 gap words
}
