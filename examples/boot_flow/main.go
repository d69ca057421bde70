// Boot flow: the paper's deployment story, end to end, for one die.
//
//  1. At manufacturing/boot, BIST (March C-) runs at every supported DVFS
//     operating point and discovers that point's defective words.
//  2. The fault maps are compressed and parked in off-chip storage.
//  3. On a DVFS switch to low voltage, the right map is loaded: the data
//     cache's FMAP/StoredPattern arrays are programmed (FFW), and the
//     linker relocates the program's basic blocks around the instruction
//     cache's defects (BBR).
//  4. Execution proceeds with zero added L1 latency; fetch never touches
//     a defective word.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/bbr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/program"
	"repro/internal/sram"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	seed := flag.Int64("seed", 42, "die seed (all randomness derives from it)")
	flag.Parse()
	dieSeed := *seed
	model := sram.NewModel()
	cfg := cache.L1Config("L1")

	// The die: one nested defect draw per cache, so maps at different
	// voltages are consistent views of the same silicon.
	seriesI := faultmap.NewSeries(cfg.Words(), rand.New(rand.NewSource(dieSeed)))
	seriesD := faultmap.NewSeries(cfg.Words(), rand.New(rand.NewSource(dieSeed+1)))

	fmt.Println("step 1: BIST at every DVFS operating point (March C-)")
	stored := map[int][]byte{} // voltage -> compressed icache map ("off-chip storage")
	var fmD400 *faultmap.Map
	for _, op := range dvfs.LowVoltagePoints() {
		truthI := seriesI.MapAt(op.PfailBit)
		arr := faultmap.NewArray(truthI, model, rand.New(rand.NewSource(dieSeed*1000+int64(op.VoltageMV))))
		res := faultmap.MarchCMinus(arr)
		if !res.Map.Equal(truthI) {
			log.Fatalf("BIST at %v missed defects", op)
		}
		z, err := res.Map.MarshalCompressed()
		if err != nil {
			log.Fatal(err)
		}
		stored[op.VoltageMV] = z
		fmt.Printf("  %s: %4d defective words found, map stored in %4d bytes\n",
			op, res.Map.CountDefective(), len(z))
		if op.VoltageMV == 400 {
			fmD400 = seriesD.MapAt(op.PfailBit)
		}
	}

	fmt.Println("\nstep 2: DVFS switch to 400 mV — load the stored map")
	var fmI400 faultmap.Map
	if err := fmI400.UnmarshalCompressed(stored[400]); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  icache map restored: %d defective words\n", fmI400.CountDefective())

	fmt.Println("\nstep 3: relink the program against the icache map (BBR)")
	prof, err := workload.ByName("basicmath")
	if err != nil {
		log.Fatal(err)
	}
	prog, err := workload.BuildProgram(prof, 7, func(p *program.Program) (*program.Program, error) {
		t, stats, terr := bbr.Transform(p, bbr.DefaultTransformConfig())
		if terr == nil {
			fmt.Printf("  compiler pass: +%d jump words\n", stats.AddedWords)
		}
		return t, terr
	})
	if err != nil {
		log.Fatal(err)
	}
	pl, err := bbr.Link(prog, &fmI400, 0)
	if err != nil {
		log.Fatalf("  link failed — this die cannot run at 400 mV: %v", err)
	}
	fmt.Printf("  linked: %d code words, %d gap words, %d lap(s)\n", pl.CodeWords, pl.GapWords, pl.Laps)

	fmt.Println("\nstep 4: run at 400 mV with FFW (dcache) + BBR (icache)")
	op, _ := dvfs.PointAt(400)
	next := core.NewNextLevel(core.MemLatencyCycles(op.FreqMHz))
	ic, err := bbr.NewICache(&fmI400, next)
	if err != nil {
		log.Fatal(err)
	}
	dc, err := ffw.New(fmD400, next, ffw.Options{})
	if err != nil {
		log.Fatal(err)
	}
	stream := workload.NewStream(prof, prog, pl, 7)
	r, err := cpu.RunContext(context.Background(), cpu.DefaultConfig(), stream, ic, dc, next, 200_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d instructions, CPI %.3f, %0.1f L2 accesses/1k instr\n",
		r.Instructions, r.CPI(), r.L2PerKiloInstr())
	if ic.DefectiveFetches != 0 {
		log.Fatalf("  INVARIANT VIOLATED: %d fetches touched defective words", ic.DefectiveFetches)
	}
	fmt.Println("  verified: zero fetches touched a defective word")
	fmt.Printf("\ncore voltage 760 mV -> 400 mV; frequency %v -> %v\n", dvfs.Nominal(), op)
}
