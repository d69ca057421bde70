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
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"text/tabwriter"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// Worker mode first: the supervisor re-invokes this binary with the
	// hidden -dist-worker argument; sim's init registered the job kinds.
	dist.MaybeWorkerMain() //lvlint:ignore ctxflow a worker serves until supervisor stdin EOF; no context governs its lifetime

	log.SetFlags(0)
	log.SetPrefix("lvdie: ")
	var (
		bench      = flag.String("bench", "basicmath", "benchmark; one of "+fmt.Sprint(workload.Names()))
		scheme     = flag.String("scheme", string(sim.FFWBBR), "scheme to sweep")
		die        = flag.Int64("die", 1, "die seed (identifies one chip's defects)")
		dies       = flag.Int("dies", 1, "sweep this many dies and summarize the optimal points")
		n          = flag.Uint64("n", 200_000, "useful instructions per run")
		workers    = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 0, "per-run timeout (0 = none)")
		shards     = flag.Int("shards", 0, "worker subprocesses for the die grid (0 = in-process)")
		checkpoint = flag.String("checkpoint", "", "durable checkpoint file for completed dies")
		resume     = flag.Bool("resume", false, "resume completed dies from -checkpoint")
	)
	flag.Parse()
	if *resume && *checkpoint == "" {
		log.Fatal("-resume requires -checkpoint")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// One grid cell per die. Single-die mode keeps its historical seeds
	// (die seed doubles as work seed); multi-die mode sweeps dies 0..N-1
	// at work seed 1, exactly as the sequential loop always has. Each
	// die's sweep is internally parallel across its operating points, and
	// the conventional baseline is one memoized RunSpec per process.
	if err := sim.CheckScheme(sim.Scheme(*scheme), true); err != nil {
		log.Fatal(err)
	}
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
	setupJSON, err := json.Marshal(sim.DistSetup{Workers: *workers, TimeoutNS: int64(*timeout)})
	if err != nil {
		log.Fatal(err)
	}
	payloads := make([]json.RawMessage, len(specs))
	for i, s := range specs {
		if payloads[i], err = json.Marshal(s); err != nil {
			log.Fatal(err)
		}
	}
	results, done, err := dist.Run(ctx, sim.KindDie, payloads, dist.Options{
		Shards: *shards, Checkpoint: *checkpoint, Resume: *resume,
		Setup: setupJSON, LocalWorkers: *workers,
	})
	interrupted := err != nil && errors.Is(err, context.Canceled)
	if err != nil && !interrupted {
		log.Fatal(err)
	}

	sweeps := make([]*sim.DieSweep, len(results))
	completed := 0
	for i := range results {
		if !done[i] {
			continue
		}
		sweeps[i] = new(sim.DieSweep)
		if derr := json.Unmarshal(results[i], sweeps[i]); derr != nil {
			log.Fatalf("die %d result: %v", i, derr)
		}
		completed++
	}

	if single {
		if interrupted || sweeps[0] == nil {
			log.Print("interrupted before the sweep completed")
			os.Exit(1)
		}
		printSweep(sweeps[0])
		return
	}

	// Multi-die mode: where does the optimum land across the population?
	// An interrupt flushes the summary over the dies that finished
	// instead of discarding them.
	picks := map[int]int{}
	var savings float64
	for _, sweep := range sweeps {
		if sweep == nil {
			continue
		}
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
	if interrupted {
		log.Printf("interrupted after %d/%d dies", completed, *dies)
		os.Exit(1)
	}
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
