// Command lvchaos runs fault-injection campaigns: FFW+BBR dies under
// deterministic runtime fault injection, steered epoch-by-epoch by the
// graceful voltage back-off controller. Each campaign reports the
// controller's transitions, the detection/recovery ledger and the
// effective-voltage residency — the robustness counterpart to lvdie's
// static per-die optimum.
//
// Usage:
//
//	lvchaos -bench qsort -die 3 -intensity 5
//	lvchaos -bench qsort,dijkstra -dies 4 -epochs 20   # campaign grid
//	lvchaos -intensity 0 -start 480                    # fault-free creep-down
//	lvchaos -dies 8 -shards 4 -checkpoint c.ckpt       # sharded, resumable
//	lvchaos -hierarchy -cores 2 -bench qsort,dijkstra  # multicore, shared L2
//
// Campaigns are deterministic: a fixed flag set produces byte-identical
// output at any -workers or -shards count. SIGINT flushes the campaigns
// that already finished before exiting nonzero; with -checkpoint, even
// a SIGKILLed grid resumes via -resume.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/gridcli"
	"repro/internal/inject"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// Worker mode first: the supervisor re-invokes this binary with the
	// hidden -dist-worker argument; sim's init registered the job kinds.
	dist.MaybeWorkerMain()

	log.SetFlags(0)
	log.SetPrefix("lvchaos: ")
	var (
		bench     = flag.String("bench", "qsort", "comma-separated benchmarks; from "+fmt.Sprint(workload.Names()))
		die       = flag.Int64("die", 1, "first die seed")
		dies      = flag.Int("dies", 1, "number of consecutive dies per benchmark")
		seed      = flag.Int64("seed", 1, "workload seed")
		iseed     = flag.Int64("iseed", 1, "fault-injection seed")
		intensity = flag.Float64("intensity", 1, "injection intensity (0 disables injection)")
		start     = flag.Int("start", 400, "starting voltage in mV (Table II point)")
		epochs    = flag.Int("epochs", 20, "controller epochs per campaign")
		epochN    = flag.Uint64("epoch-n", 100_000, "useful instructions per epoch")
		up        = flag.Float64("up", 1, "back-off threshold: detected faults per kilo-instruction")
		down      = flag.Float64("down", 0, "stability threshold (0 = up/2)")
		stable    = flag.Int("stable", 3, "consecutive stable epochs before stepping back down")
		hierarchy = flag.Bool("hierarchy", false, "event-driven multicore mode: -cores cores share a banked L2")
		ncores    = flag.Int("cores", 2, "cores in -hierarchy mode (benchmarks round-robin across them)")
		l2mv      = flag.Int("l2mv", 0, "uncore (shared L2) voltage in mV, -hierarchy mode (0 = nominal)")
		grid      = gridcli.Bind("campaigns", "per-campaign")
	)
	flag.Parse()

	if *hierarchy {
		runHierGrid(grid, hierGrid{
			benchmarks: strings.Split(*bench, ","), cores: *ncores, l2mv: *l2mv,
			die: *die, dies: *dies, seed: *seed, iseed: *iseed, intensity: *intensity,
			start: *start, epochs: *epochs, epochN: *epochN,
			backoff: dvfs.BackoffConfig{UpThreshold: *up, DownThreshold: *down, StableEpochs: *stable},
		})
		return
	}

	var specs []sim.ChaosSpec
	for _, b := range strings.Split(*bench, ",") {
		b = strings.TrimSpace(b)
		for d := int64(0); d < int64(*dies); d++ {
			specs = append(specs, sim.ChaosSpec{
				Benchmark: b, DieSeed: *die + d, WorkSeed: *seed,
				Inject:  inject.Params{Seed: *iseed, Intensity: *intensity},
				StartMV: *start, Epochs: *epochs, EpochInstructions: *epochN,
				CPU:     cpu.DefaultConfig(),
				Backoff: dvfs.BackoffConfig{UpThreshold: *up, DownThreshold: *down, StableEpochs: *stable},
			})
		}
	}
	// On SIGINT the campaigns that already finished are flushed instead
	// of discarded, and -checkpoint makes them durable across a SIGKILL
	// for a later -resume.
	results, done, err := gridcli.Run(grid, sim.ChaosJob, specs)
	reportAll(results, done, report)
	grid.Done(err, done)
}

// reportAll prints every completed campaign, blank-line separated.
func reportAll[R any](results []R, done []bool, report func(R)) {
	printed := false
	for i, res := range results {
		if done[i] {
			if printed {
				fmt.Println()
			}
			report(res)
			printed = true
		}
	}
}

// report prints one campaign: the per-epoch controller trace, the
// residency histogram and the detection/recovery totals.
func report(res *sim.ChaosResult) {
	s := res.Spec
	fmt.Printf("== %s  die %d  intensity %g  start %d mV ==\n", s.Benchmark, s.DieSeed, s.Inject.Intensity, s.StartMV)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "epoch\tmV\tCPI\tflt/kI\tdet\tretry\trefetch\tuncorr\taction\tEPI(norm)")
	for _, ep := range res.Epochs {
		fmt.Fprintf(w, "%d\t%d\t%.3f\t%.2f\t%d\t%d\t%d\t%d\t%s\t%.3f\n",
			ep.Index, ep.Op.VoltageMV, ep.Result.CPI(), ep.Rate,
			ep.Faults.Detected, ep.Faults.CorrectedRetry, ep.Faults.CorrectedRefetch,
			ep.Faults.Uncorrected, ep.Action, ep.NormEPI)
	}
	w.Flush()

	parts := make([]string, 0, len(res.Residency))
	for _, r := range res.Residency {
		parts = append(parts, fmt.Sprintf("%d mV %.0f%% (%d epochs)", r.VoltageMV, 100*r.Frac, r.Epochs))
	}
	fmt.Printf("residency: %s\n", strings.Join(parts, "  "))
	t := res.Totals
	fmt.Printf("faults: injected %d  detected %d  corrected %d (retry %d + refetch %d)  uncorrected %d  lines disabled %d\n",
		t.Injected(), t.Detected, t.Corrected(), t.CorrectedRetry, t.CorrectedRefetch, t.Uncorrected, t.DisabledLines)
	fmt.Printf("controller: %d step-ups / %d step-downs, final %d mV; mean EPI(norm) %.3f\n",
		res.StepUps, res.StepDowns, res.FinalMV, res.MeanNormEPI)
}

// hierGrid carries the -hierarchy mode's resolved parameters.
type hierGrid struct {
	benchmarks []string
	cores      int
	l2mv       int
	die        int64
	dies       int
	seed       int64
	iseed      int64
	intensity  float64
	start      int
	epochs     int
	epochN     uint64
	backoff    dvfs.BackoffConfig
}

// runHierGrid runs -dies multicore campaigns: each campaign puts
// -cores FFW+BBR cores (benchmarks round-robin) on private voltage
// domains, all contending for one shared L2, each steered by its own
// back-off controller against its own die's fault maps.
func runHierGrid(grid *gridcli.Flags, g hierGrid) {
	specs := make([]sim.HierChaosSpec, 0, g.dies)
	for d := int64(0); d < int64(g.dies); d++ {
		hs := sim.HierChaosSpec{
			Inject: inject.Params{Seed: g.iseed, Intensity: g.intensity},
			L2MV:   g.l2mv, Epochs: g.epochs, EpochInstructions: g.epochN,
			CPU: cpu.DefaultConfig(), Backoff: g.backoff,
		}
		for i := 0; i < g.cores; i++ {
			hs.Cores = append(hs.Cores, sim.HierChaosCoreSpec{
				Benchmark: strings.TrimSpace(g.benchmarks[i%len(g.benchmarks)]),
				DieSeed:   g.die + d*int64(g.cores) + int64(i),
				WorkSeed:  g.seed + int64(i),
				StartMV:   g.start,
			})
		}
		specs = append(specs, hs)
	}
	results, done, err := gridcli.Run(grid, sim.HierChaosJob, specs)
	reportAll(results, done, reportHier)
	grid.Done(err, done)
}

// reportHier prints one multicore campaign: the per-epoch per-core
// controller trace with the L2's per-epoch contention, then each
// core's residency and fault ledger, then the shared L2's totals.
func reportHier(res *sim.HierChaosResult) {
	s := res.Spec
	l2op := dvfs.Nominal()
	if s.L2MV != 0 {
		var err error
		if l2op, err = dvfs.PointAt(s.L2MV); err != nil {
			log.Fatal(err)
		}
	}
	dies := make([]string, 0, len(s.Cores))
	for _, cs := range s.Cores {
		dies = append(dies, fmt.Sprintf("%d", cs.DieSeed))
	}
	fmt.Printf("== %d cores  dies %s  intensity %g  start %d mV  L2 %d mV ==\n",
		len(s.Cores), strings.Join(dies, ","), s.Inject.Intensity, s.Cores[0].StartMV, l2op.VoltageMV)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "epoch\tcore\tmV\tCPI\tflt/kI\tdet\tretry\trefetch\tuncorr\taction\tL2wait(cy)")
	for _, ep := range res.Epochs {
		for _, c := range ep.Cores {
			fmt.Fprintf(w, "%d\t%d\t%d\t%.3f\t%.2f\t%d\t%d\t%d\t%d\t%s\t%.3f\n",
				ep.Index, c.Core, c.MV, c.Result.CPI(), c.Rate,
				c.Faults.Detected, c.Faults.CorrectedRetry, c.Faults.CorrectedRefetch,
				c.Faults.Uncorrected, c.Action, ep.L2.MeanReadWaitCycles(l2op))
		}
	}
	w.Flush()

	for _, c := range res.Cores {
		parts := make([]string, 0, len(c.Residency))
		for _, r := range c.Residency {
			parts = append(parts, fmt.Sprintf("%d mV %.0f%% (%d epochs)", r.VoltageMV, 100*r.Frac, r.Epochs))
		}
		t := c.Totals
		fmt.Printf("core %d (%s): residency %s; faults detected %d corrected %d uncorrected %d; %d step-ups / %d step-downs, final %d mV\n",
			c.Core, c.Benchmark, strings.Join(parts, "  "),
			t.Detected, t.Corrected(), t.Uncorrected, c.StepUps, c.StepDowns, c.FinalMV)
	}
	l2 := res.L2
	fmt.Printf("L2: reads %d (hits %d, merges %d)  writes %d  dram reads %d  mean-read-wait %.3f cy\n",
		l2.Reads, l2.ReadHits, l2.Merges, l2.Writes, l2.DramReads, l2.MeanReadWaitCycles(l2op))
}
