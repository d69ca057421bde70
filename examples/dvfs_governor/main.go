// DVFS governor: the paper's motivation made concrete. DVFS wants to run
// each workload at its energy-optimal voltage, but the conventional cache
// pins the whole core at 760 mV. This example plays governor: for every
// benchmark it walks the Table II ladder under three cache designs —
// conventional (stuck at 760 mV), the 8T cache, and FFW+BBR — and picks
// the energy-minimal legal operating point for each, printing the
// resulting EPI and the energy left on the table by the conventional
// design.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	lvcache "repro"
	"repro/internal/cpu"
	"repro/internal/energy"
	"repro/internal/sim"
)

func main() {
	log.SetFlags(0)
	seed := flag.Int64("seed", 3, "fault-map seed")
	flag.Parse()
	const instrs = 200_000
	model := energy.DefaultModel()
	ctx := context.Background()
	eng := lvcache.NewEngine(0)

	type pick struct {
		mv  int
		epi float64
	}
	best := func(scheme lvcache.Scheme, bench string, baseline lvcache.Result) pick {
		p := pick{mv: 760, epi: 1}
		if scheme == lvcache.Conventional {
			return p // pinned at Vccmin
		}
		p.epi = 2 // sentinel; every real point will beat it
		for _, op := range lvcache.LowVoltagePoints() {
			r, err := eng.Run(ctx, lvcache.RunSpec{
				Scheme: scheme, Benchmark: bench, Op: op,
				MapSeed: *seed, Instructions: instrs, CPU: cpu.DefaultConfig(),
			})
			if err != nil {
				log.Fatal(err)
			}
			norm, err := model.Normalized(r, op, sim.L1StaticFactor(scheme), baseline)
			if err != nil {
				log.Fatal(err)
			}
			if norm < p.epi {
				p = pick{mv: op.VoltageMV, epi: norm}
			}
		}
		return p
	}

	fmt.Println("energy-optimal DVFS point per benchmark (EPI normalized to conventional @760 mV)")
	fmt.Println()
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "benchmark\tconventional\t8T pick\t8T EPI\tFFW+BBR pick\tFFW+BBR EPI\tsavings vs conv.")
	var meanSave float64
	benches := lvcache.Benchmarks()
	for _, bench := range benches {
		baseline, err := eng.Run(ctx, lvcache.RunSpec{
			Scheme: lvcache.Conventional, Benchmark: bench, Op: lvcache.Nominal(),
			Instructions: instrs, CPU: cpu.DefaultConfig(),
		})
		if err != nil {
			log.Fatal(err)
		}
		t8 := best(lvcache.EightT, bench, baseline)
		ours := best(lvcache.FFWBBR, bench, baseline)
		save := 100 * (1 - ours.epi)
		meanSave += save / float64(len(benches))
		fmt.Fprintf(w, "%s\t760 mV / 1.000\t%d mV\t%.3f\t%d mV\t%.3f\t%.0f%%\n",
			bench, t8.mv, t8.epi, ours.mv, ours.epi, save)
	}
	w.Flush()
	fmt.Printf("\nmean energy saved by letting the governor scale below 760 mV with FFW+BBR: %.0f%%\n", meanSave)
	fmt.Println("(the paper's headline: 64% at 400 mV; which rung is optimal depends on the workload's")
	fmt.Println(" memory behaviour — static energy and defect-induced L2 traffic both grow as V falls)")
}
