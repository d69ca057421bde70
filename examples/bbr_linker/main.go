// BBR linker walkthrough: a hand-built five-block program goes through
// the compiler transformation and Algorithm 1, step by step, against a
// small hand-crafted defect pattern — a readable version of the paper's
// Figure 8 + Algorithm 1 discussion.
package main

import (
	"fmt"
	"log"

	"repro/internal/bbr"
	"repro/internal/cache"
	"repro/internal/faultmap"
	"repro/internal/program"
)

func main() {
	log.SetFlags(0)

	// A tiny program: an entry block falling through into a loop whose
	// body is too large for the split threshold, followed by an exit.
	src := &program.Program{Blocks: []program.BasicBlock{
		{Size: 3, Term: program.TermFall, Kinds: kinds(3)},                                   // bb0: falls into the loop
		{Size: 12, LiteralWords: 2, Term: program.TermFall, Kinds: kinds(12)},                // bb1: big body + literal pool
		{Size: 2, Term: program.TermBranch, Target: 1, TakenProb: 0.9, Kinds: branchTail(2)}, // bb2: backedge
		{Size: 4, Term: program.TermFall, Kinds: kinds(4)},                                   // bb3
		{Size: 1, Term: program.TermExit, Kinds: kinds(1)},                                   // bb4
	}}
	if err := src.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("source program: %d blocks, %d instructions, %d words with literals\n",
		len(src.Blocks), src.StaticInstrs(), src.StaticWords())

	cfg := bbr.TransformConfig{SplitThreshold: 8, MaxFootprintWords: 1024}
	prog, stats, err := bbr.Transform(src, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncompiler pass (Figure 8): inserted %d jumps, split %d block(s), moved %d literal pool(s)\n",
		stats.InsertedJumps, stats.SplitBlocks, stats.MovedLiterals)
	for i := range prog.Blocks {
		b := &prog.Blocks[i]
		fmt.Printf("  block %d: %2d words", i, b.Footprint())
		switch {
		case b.Term == program.TermJump:
			fmt.Printf("  jump -> %d", b.Target)
		case b.Term == program.TermBranch && b.ExplicitFall:
			fmt.Printf("  branch -> %d, fall-jump -> %d", b.Target, b.FallTarget)
		case b.Term == program.TermExit:
			fmt.Printf("  exit")
		}
		if b.TransformAdded {
			fmt.Printf("  [jump appended by the pass]")
		}
		fmt.Println()
	}

	// A fault map with a handful of defects near the start of the
	// direct-mapped image, so the placements are easy to follow.
	icfg := cache.L1Config("L1I")
	fm := faultmap.New(icfg.Words())
	for _, pos := range []int{2, 3, 11, 12, 13, 30} {
		fm.SetDefective(icfg.Geometry().DMImageWordIndex(pos), true)
	}
	fmt.Printf("\nfault map: defective image positions 2,3 11-13 30; chunks: [0,2) [4,11) [14,30) [31,...)\n")

	pl, err := bbr.Link(prog, fm, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nAlgorithm 1 placement (first fault-free chunk that fits, global pointer):")
	for i := range prog.Blocks {
		addr := pl.BlockAddr(program.BlockID(i))
		fmt.Printf("  block %d (%2d words) -> byte %#04x (image word %d)\n",
			i, prog.Blocks[i].Footprint(), addr, addr/4)
	}
	fmt.Printf("gaps inserted: %d words; laps around the cache: %d\n", pl.GapWords, pl.Laps)

	// The invariant that makes fetch safe at 400 mV.
	for i := range prog.Blocks {
		for _, w := range pl.PlacedWords(prog, program.BlockID(i)) {
			if fm.Defective(w) {
				log.Fatalf("block %d landed on defective word %d", i, w)
			}
		}
	}
	fmt.Println("verified: every placed word is fault-free — fetch never touches a defect")
}

func kinds(n int) []program.InstrKind { return make([]program.InstrKind, n) }

func branchTail(n int) []program.InstrKind {
	k := make([]program.InstrKind, n)
	k[n-1] = program.KindBranch
	return k
}
