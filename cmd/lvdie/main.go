// Command lvdie sweeps one die across the whole DVFS ladder with
// voltage-nested fault maps (a word failing at 560 mV also fails below)
// and reports the die's energy-optimal operating point — the
// per-chip question the paper's mechanisms exist to answer.
//
// Usage:
//
//	lvdie -bench basicmath -scheme FFW+BBR -die 42
//	lvdie -bench qsort -dies 20            # distribution over 20 dies
//	lvdie -dies 20 -shards 4 -checkpoint d.ckpt   # sharded, resumable
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/gridcli"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// Worker mode first: the supervisor re-invokes this binary with the
	// hidden -dist-worker argument; sim's init registered the job kinds.
	dist.MaybeWorkerMain()

	log.SetFlags(0)
	log.SetPrefix("lvdie: ")
	var (
		bench  = flag.String("bench", "basicmath", "benchmark; one of "+fmt.Sprint(workload.Names()))
		scheme = flag.String("scheme", string(sim.FFWBBR), "scheme to sweep")
		die    = flag.Int64("die", 1, "die seed (identifies one chip's defects)")
		dies   = flag.Int("dies", 1, "sweep this many dies and summarize the optimal points")
		n      = flag.Uint64("n", 200_000, "useful instructions per run")
		grid   = gridcli.Bind("dies", "per-run")
	)
	flag.Parse()

	// One grid cell per die. Single-die mode keeps its historical seeds
	// (die seed doubles as work seed); multi-die mode sweeps dies 0..N-1
	// at work seed 1, exactly as the sequential loop always has. Each
	// die's sweep is internally parallel across its operating points, and
	// the conventional baseline is one memoized RunSpec per process.
	single := *dies <= 1
	var specs []sim.DieSpec
	if single {
		specs = []sim.DieSpec{{Scheme: sim.Scheme(*scheme), Benchmark: *bench,
			DieSeed: *die, WorkSeed: *die, Instructions: *n, CPU: cpu.DefaultConfig()}}
	} else {
		for d := int64(0); d < int64(*dies); d++ {
			specs = append(specs, sim.DieSpec{Scheme: sim.Scheme(*scheme), Benchmark: *bench,
				DieSeed: d, WorkSeed: 1, Instructions: *n, CPU: cpu.DefaultConfig()})
		}
	}
	sweeps, done, err := gridcli.Run(grid, sim.DieJob, specs)
	if single {
		if done[0] {
			printSweep(sweeps[0])
		}
		grid.Done(err, done)
		return
	}

	// Multi-die mode: where does the optimum land across the population?
	// An interrupt flushes the summary over the dies that finished
	// instead of discarding them.
	picks := map[int]int{}
	var savings float64
	completed := 0
	for _, sweep := range sweeps {
		if sweep == nil {
			continue
		}
		completed++
		if best, ok := sweep.OptimalPoint(); ok {
			picks[best.Op.VoltageMV]++
			savings += 1 - best.NormEPI
		} else {
			picks[0]++
		}
	}
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "optimal mV\tdies")
	for _, mv := range []int{560, 520, 480, 440, 400, 0} {
		if picks[mv] == 0 {
			continue
		}
		label := fmt.Sprint(mv)
		if mv == 0 {
			label = "uncoverable"
		}
		fmt.Fprintf(w, "%s\t%d\n", label, picks[mv])
	}
	w.Flush()
	if completed > 0 {
		fmt.Printf("mean EPI reduction across %d dies: %.0f%%\n", completed, 100*savings/float64(completed))
	}
	grid.Done(err, done)
}

// printSweep renders one die's DVFS ladder and its optimal point.
func printSweep(sweep *sim.DieSweep) {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mV\tfreq(MHz)\tCPI\tL2/1k\tEPI(norm)\tcovered")
	for _, p := range sweep.Points {
		if !p.Yield {
			fmt.Fprintf(w, "%d\t%.0f\t-\t-\t-\tNO\n", p.Op.VoltageMV, p.Op.FreqMHz)
			continue
		}
		fmt.Fprintf(w, "%d\t%.0f\t%.3f\t%.1f\t%.3f\tyes\n",
			p.Op.VoltageMV, p.Op.FreqMHz, p.Result.CPI(), p.Result.L2PerKiloInstr(), p.NormEPI)
	}
	w.Flush()
	if best, ok := sweep.OptimalPoint(); ok {
		fmt.Printf("\noptimal point for this die: %v (%.0f%% EPI reduction vs 760 mV conventional)\n",
			best.Op, 100*(1-best.NormEPI))
	} else {
		fmt.Println("\nthis die cannot be scaled under this scheme")
	}
}
