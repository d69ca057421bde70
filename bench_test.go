// Ablation benchmarks for the design choices DESIGN.md calls out. Each
// runs its comparison once per iteration at 400 mV and reports the
// compared values via b.ReportMetric; EXPERIMENTS.md's Ablations section
// quotes them:
//
//	go test -run '^$' -bench Ablation .
//
// The paper's tables and figures come from cmd/lvreport, whose output
// its golden test pins.
package lvcache

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bbr"
	cachepkg "repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/program"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/workload"
)

func opAt(b *testing.B, mv int) dvfs.OperatingPoint {
	b.Helper()
	op, err := dvfs.PointAt(mv)
	if err != nil {
		b.Fatal(err)
	}
	return op
}

// BenchmarkAblationWindowPlacement compares FFW's two window placement
// policies (the paper's centered policy vs Figure 5's first-k default) by
// data-cache hit rate under a reused-window workload at 400 mV.
func BenchmarkAblationWindowPlacement(b *testing.B) {
	op := opAt(b, 400)
	run := func(p ffw.WindowPlacement) float64 {
		r, err := sim.RunContext(context.Background(), sim.RunSpec{
			Scheme: sim.FFWBBR, Benchmark: "basicmath", Op: op,
			MapSeed: 1, WorkSeed: 1, Instructions: 60_000,
			CPU: cpu.DefaultConfig(), Placement: p,
		})
		if err != nil {
			b.Fatal(err)
		}
		return r.L2PerKiloInstr()
	}
	var centered, firstK float64
	for i := 0; i < b.N; i++ {
		centered = run(ffw.PlacementCentered)
		firstK = run(ffw.PlacementFirstK)
	}
	b.ReportMetric(centered, "centered-L2-per-1k")
	b.ReportMetric(firstK, "firstk-L2-per-1k")
}

// BenchmarkAblationFBAEntries sweeps the fault-buffer size (the paper
// contrasts a realistic 64 with the optimistic 1024) and reports the L2
// traffic of each at 400 mV.
func BenchmarkAblationFBAEntries(b *testing.B) {
	for _, entries := range []int{16, 64, 256, 1024} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			op := opAt(b, 400)
			var l2k float64
			for i := 0; i < b.N; i++ {
				// Build directly so intermediate sizes are exercised too.
				fm := faultmap.Generate(32*1024/4, op.PfailBit, rand.New(rand.NewSource(1)))
				fmI := faultmap.Generate(32*1024/4, op.PfailBit, rand.New(rand.NewSource(2)))
				next := core.NewNextLevel(core.MemLatencyCycles(op.FreqMHz))
				ic, err := schemes.NewFBA(fmI, next, entries)
				if err != nil {
					b.Fatal(err)
				}
				dc, err := schemes.NewFBA(fm, next, entries)
				if err != nil {
					b.Fatal(err)
				}
				prof, _ := workload.ByName("qsort")
				prog, _ := workload.BuildProgram(prof, 1, nil)
				s := workload.NewStream(prof, prog, program.NewSequentialLayout(prog, 0), 1)
				r, err := cpu.RunContext(context.Background(), cpu.DefaultConfig(), s, ic, dc, next, 60_000)
				if err != nil {
					b.Fatal(err)
				}
				l2k = r.L2PerKiloInstr()
			}
			b.ReportMetric(l2k, "L2-per-1k")
		})
	}
}

// BenchmarkAblationBBRSplitThreshold sweeps the compiler's block-split
// threshold: smaller pieces fit scarce chunks more easily (fewer gaps)
// but execute more chaining jumps.
func BenchmarkAblationBBRSplitThreshold(b *testing.B) {
	op := opAt(b, 400)
	for _, threshold := range []int{4, 6, 8, 12} {
		b.Run(fmt.Sprintf("threshold=%d", threshold), func(b *testing.B) {
			var gapFrac, overhead float64
			for i := 0; i < b.N; i++ {
				prof, _ := workload.ByName("basicmath")
				src, err := workload.BuildProgram(prof, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				cfgT := bbr.DefaultTransformConfig()
				cfgT.SplitThreshold = threshold
				prog, stats, err := bbr.Transform(src, cfgT)
				if err != nil {
					b.Fatal(err)
				}
				fm := faultmap.Generate(32*1024/4, op.PfailBit, rand.New(rand.NewSource(3)))
				pl, err := bbr.Link(prog, fm, 0)
				if err != nil {
					b.Fatal(err)
				}
				gapFrac = float64(pl.GapWords) / float64(pl.CodeWords)
				overhead = float64(stats.AddedWords) / float64(src.StaticInstrs())
			}
			b.ReportMetric(100*gapFrac, "gap-%")
			b.ReportMetric(100*overhead, "code-growth-%")
		})
	}
}

// BenchmarkAblationDMvsSA quantifies the cost of BBR's direct-mapped
// low-voltage mode: the same linked program fetched through the BBR
// direct-mapped cache versus a (defect-oblivious) 4-way set-associative
// cache with the same layout — an upper bound no real design could reach,
// since set-associative placement cannot give software slot control.
func BenchmarkAblationDMvsSA(b *testing.B) {
	op := opAt(b, 400)
	prof, _ := workload.ByName("429.mcf") // large live footprint: conflicts matter
	var dmMiss, saMiss float64
	for i := 0; i < b.N; i++ {
		prog, err := workload.BuildProgram(prof, 1, func(p *program.Program) (*program.Program, error) {
			t, _, terr := bbr.Transform(p, bbr.DefaultTransformConfig())
			return t, terr
		})
		if err != nil {
			b.Fatal(err)
		}
		fm := faultmap.Generate(32*1024/4, op.PfailBit, rand.New(rand.NewSource(4)))
		pl, err := bbr.Link(prog, fm, 0)
		if err != nil {
			b.Fatal(err)
		}
		fetchAll := func(ic core.InstrCache) float64 {
			w := program.NewWalker(prog, 5)
			misses := 0
			total := 0
			for total < 60_000 {
				blk, taken := w.Next()
				base := pl.BlockAddr(blk)
				for k := 0; k < program.ExecutedWords(&prog.Blocks[blk], taken); k++ {
					if !ic.Fetch(base + uint64(4*k)).Hit {
						misses++
					}
					total++
				}
			}
			return 1000 * float64(misses) / float64(total)
		}
		next := core.NewNextLevel(core.MemLatencyCycles(op.FreqMHz))
		dm, err := bbr.NewICache(fm, next)
		if err != nil {
			b.Fatal(err)
		}
		dmMiss = fetchAll(dm)
		saMiss = fetchAll(schemes.NewDefectFree(core.NewNextLevel(core.MemLatencyCycles(op.FreqMHz))))
	}
	b.ReportMetric(dmMiss, "dm-misses-per-1k")
	b.ReportMetric(saMiss, "sa-misses-per-1k")
}

// BenchmarkAblationScatterFFW compares the paper's contiguous windows
// with the non-contiguous "scatter" extension (per-word LRU replacement
// inside the frame) on a reuse-heavy benchmark at 400 mV.
func BenchmarkAblationScatterFFW(b *testing.B) {
	op := opAt(b, 400)
	run := func(scatter bool) float64 {
		r, err := sim.RunContext(context.Background(), sim.RunSpec{
			Scheme: sim.FFWBBR, Benchmark: "adpcm", Op: op,
			MapSeed: 1, WorkSeed: 1, Instructions: 60_000,
			CPU: cpu.DefaultConfig(), Scatter: scatter,
		})
		if err != nil {
			b.Fatal(err)
		}
		return r.L2PerKiloInstr()
	}
	var window, scatter float64
	for i := 0; i < b.N; i++ {
		window = run(false)
		scatter = run(true)
	}
	b.ReportMetric(window, "window-L2-per-1k")
	b.ReportMetric(scatter, "scatter-L2-per-1k")
}

// BenchmarkAblationLinkerFit compares Algorithm 1's first-fit linker with
// a best-fit bin-packing variant: packing quality (laps over the cache)
// versus the fetch miss rate the resulting placement produces.
func BenchmarkAblationLinkerFit(b *testing.B) {
	op := opAt(b, 400)
	prof, _ := workload.ByName("429.mcf")
	prog, err := workload.BuildProgram(prof, 1, func(p *program.Program) (*program.Program, error) {
		t, _, terr := bbr.Transform(p, bbr.DefaultTransformConfig())
		return t, terr
	})
	if err != nil {
		b.Fatal(err)
	}
	measure := func(link func(*program.Program, *faultmap.Map, uint64) (*bbr.Placement, error)) (laps, missPerK float64) {
		fm := faultmap.Generate(32*1024/4, op.PfailBit, rand.New(rand.NewSource(6)))
		pl, err := link(prog, fm, 0)
		if err != nil {
			b.Fatal(err)
		}
		next := core.NewNextLevel(core.MemLatencyCycles(op.FreqMHz))
		ic, err := bbr.NewICache(fm, next)
		if err != nil {
			b.Fatal(err)
		}
		w := program.NewWalker(prog, 7)
		misses, total := 0, 0
		for total < 60_000 {
			blk, taken := w.Next()
			base := pl.BlockAddr(blk)
			for k := 0; k < program.ExecutedWords(&prog.Blocks[blk], taken); k++ {
				if !ic.Fetch(base + uint64(4*k)).Hit {
					misses++
				}
				total++
			}
		}
		if ic.DefectiveFetches != 0 {
			b.Fatalf("placement touched %d defective words", ic.DefectiveFetches)
		}
		return float64(pl.Laps), 1000 * float64(misses) / float64(total)
	}
	var ffLaps, ffMiss, bfLaps, bfMiss float64
	for i := 0; i < b.N; i++ {
		ffLaps, ffMiss = measure(bbr.Link)
		bfLaps, bfMiss = measure(bbr.LinkBestFit)
	}
	b.ReportMetric(ffLaps, "firstfit-laps")
	b.ReportMetric(ffMiss, "firstfit-miss-per-1k")
	b.ReportMetric(bfLaps, "bestfit-laps")
	b.ReportMetric(bfMiss, "bestfit-miss-per-1k")
}

// BenchmarkAblationReplacement compares the L1 victim policies on the
// paper's geometry: Table I specifies true LRU; tree pseudo-LRU is what
// hardware builds; FIFO is the lower bound. Miss rates per 1000 accesses
// on a qsort-shaped data stream.
func BenchmarkAblationReplacement(b *testing.B) {
	prof, _ := workload.ByName("qsort")
	run := func(r cachepkg.Replacement) float64 {
		cfg := cachepkg.L1Config("ablate")
		cfg.Replacement = r
		c := cachepkg.MustNew(cfg)
		g := workload.NewDataGen(prof, 5)
		misses := 0
		const n = 120_000
		for i := 0; i < n; i++ {
			if !c.Access(g.Next(), false).Hit {
				misses++
			}
		}
		return 1000 * float64(misses) / n
	}
	var lru, plru, fifo float64
	for i := 0; i < b.N; i++ {
		lru = run(cachepkg.ReplaceLRU)
		plru = run(cachepkg.ReplacePLRU)
		fifo = run(cachepkg.ReplaceFIFO)
	}
	b.ReportMetric(lru, "lru-miss-per-1k")
	b.ReportMetric(plru, "plru-miss-per-1k")
	b.ReportMetric(fifo, "fifo-miss-per-1k")
}
