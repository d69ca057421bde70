// Quickstart: simulate the paper's proposed FFW+BBR scheme on one
// benchmark at the deepest operating point (400 mV) and compare it with
// the conventional cache pinned at its 760 mV Vccmin.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	lvcache "repro"
	"repro/internal/cpu"
)

func main() {
	log.SetFlags(0)
	seed := flag.Int64("seed", 1, "fault-map seed")
	flag.Parse()

	// The conventional 6T cache cannot run below 760 mV without
	// sacrificing chip yield; it is the energy baseline.
	nominal := lvcache.Nominal()
	fmt.Printf("conventional Vccmin: %d mV (yield-limited)\n", lvcache.ConventionalVccminMV)

	ctx := context.Background()
	eng := lvcache.NewEngine(0)
	baseline, err := eng.Run(ctx, lvcache.RunSpec{
		Scheme:       lvcache.Conventional,
		Benchmark:    "basicmath",
		Op:           nominal,
		Instructions: 300_000,
		CPU:          cpu.DefaultConfig(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline @%v: CPI %.3f, runtime %.3f ms\n",
		nominal, baseline.CPI(), 1e3*baseline.RuntimeSeconds(nominal.FreqMHz))

	// FFW (data cache) + BBR (instruction cache) tolerate the defect
	// density at 400 mV with zero added hit latency.
	var p400 lvcache.OperatingPoint
	for _, op := range lvcache.LowVoltagePoints() {
		if op.VoltageMV == 400 {
			p400 = op
		}
	}
	run, err := eng.Run(ctx, lvcache.RunSpec{
		Scheme:       lvcache.FFWBBR,
		Benchmark:    "basicmath",
		Op:           p400,
		MapSeed:      *seed,
		Instructions: 300_000,
		CPU:          cpu.DefaultConfig(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("FFW+BBR  @%v: CPI %.3f, runtime %.3f ms, L2 accesses/1k instr %.1f\n",
		p400, run.CPI(), 1e3*run.RuntimeSeconds(p400.FreqMHz), run.L2PerKiloInstr())
	fmt.Println("\nRun `go run ./cmd/lvreport -all -quick` for the full evaluation.")
}
