// Command perfbench is lvcache's benchmark: four workloads that cover
// the paper's evaluation grid (fig10), die sweeps sharded across worker
// processes (die-campaign), multicore fault-injection campaigns on the
// event-driven hierarchy (hier-chaos) and a served request mix
// (serve-mix). It prints every metric by name with its unit and checks
// every output it measures.
//
// Usage:
//
//	perfbench --workload fig10 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with --trace 1 it rebuilds the same work from the layers' public
// constructors, records spans around every call into a layer, checks
// the rebuilt runs against the real ones, and reports the per-layer
// metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"repro/internal/dist"
)

// defaultSeed is the seed the golden digests were recorded at.
const defaultSeed = 1

// concurrency is the most threads, engine workers, worker subprocesses
// or connections any workload uses: the host's two CPUs.
const concurrency = 2

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	// Die campaigns re-invoke this binary as their dist workers.
	dist.MaybeWorkerMain() //lvlint:ignore ctxflow a worker serves until its supervisor closes stdin; no context governs its lifetime

	var (
		name    = flag.String("workload", "", "workload: fig10, die-campaign, hier-chaos or serve-mix")
		seed    = flag.Int64("seed", defaultSeed, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 10, "measured time per run")
		traced  = flag.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, workloadNames())
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var (
		res *result
		err error
	)
	if *traced == 1 {
		res, err = runTraced(ctx, w, *seed, *seconds)
	} else {
		res, err = runEndToEnd(ctx, w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// finite keeps a metric JSON-encodable: a failed operation's latency is
// +Inf ("misses any limit"), reported as the largest float.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}
