package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// opSample is one operation a workload sent and waited for: a
// scheme's slice of the figure grid, a die campaign, a hierarchy
// campaign or an HTTP request.
type opSample struct {
	latency time.Duration
	failed  bool
}

// iterOut is what one repetition of a workload's fixed work produced.
type iterOut struct {
	ops []opSample
	// output is the canonical output; its sha256 is the iteration's
	// digest, equal on every iteration and, at the default seed, to the
	// golden digest.
	output []byte
	// instrs counts the useful simulated instructions the output reports.
	instrs uint64
}

// iteration is one prepared repetition of the fixed work.
type iteration struct {
	run   func(ctx context.Context) (iterOut, error)
	close func()
}

// benchmark is one workload of the benchmark.
type benchmark struct {
	name string
	// prepare builds iteration iter's inputs and services (specs
	// generated, server listening); setupBatch times it for setup_s.
	prepare func(seed int64, iter int) (*iteration, error)
	// check compares one iteration's output against an independent
	// computation of the same inputs (untimed, once per run).
	check func(ctx context.Context, seed int64, out iterOut) error
	// trace runs the traced pass and returns the per-layer metrics it
	// measured.
	trace func(ctx context.Context, seed int64, tr *tracer) (layerMetrics, error)
}

var workloads = map[string]benchmark{
	"fig10":        fig10Workload,
	"die-campaign": dieWorkload,
	"hier-chaos":   hierWorkload,
	"serve-mix":    serveWorkload,
}

// closedLoop runs operations 0..n-1 from `clients` clients; each
// client starts its next operation only when its last one returned.
func closedLoop(n, clients int, op func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				op(i)
			}
		}()
	}
	wg.Wait()
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runEndToEnd repeats the workload's fixed work, each time after a
// batch of setups, until the run has lasted `seconds` and run at
// least minTailSamples operations (or twice `seconds` has passed), then
// reports the end-to-end metrics.
func runEndToEnd(ctx context.Context, w benchmark, seed int64, seconds float64) (*result, error) {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	var (
		walls, setups, allocs, rates []float64
		lat                          []float64
		attempted, failed            int
		ops                          int
		opTime                       time.Duration
		first                        string
		firstOut                     iterOut
		correct                      = true
	)
	for n := 0; ; n++ {
		el := time.Since(start)
		if n > 0 && el >= budget && (len(lat) >= minTailSamples || el >= 2*budget) {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		setup, err := setupBatch(w, seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, setup)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		it, err := w.prepare(seed, n)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		t1 := time.Now()
		out, runErr := it.run(ctx)
		wall := time.Since(t1)
		it.close()
		runtime.ReadMemStats(&after)
		if errors.Is(runErr, context.Canceled) && ctx.Err() != nil {
			return nil, runErr
		}

		walls = append(walls, wall.Seconds())
		allocs = append(allocs, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		rates = append(rates, float64(out.instrs)/1e6/wall.Seconds())
		opTime += wall
		ops += len(out.ops)

		d := digest(out.output)
		bad := runErr != nil
		switch {
		case runErr != nil:
			fmt.Fprintf(os.Stderr, "perfbench: iteration %d: %v\n", n, runErr)
		case n == 0:
			first, firstOut = d, out
			if g := golden[w.name]; seed == defaultSeed && g != d {
				fmt.Fprintf(os.Stderr, "perfbench: digest %s differs from the golden %s\n", d, g)
				bad = true
			}
		case d != first:
			fmt.Fprintf(os.Stderr, "perfbench: iteration %d digest %s differs from the first %s\n", n, d, first)
			bad = true
		}
		if len(out.ops) == 0 {
			out.ops = []opSample{{latency: wall, failed: true}}
		}
		for _, o := range out.ops {
			attempted++
			if o.failed || bad {
				failed++
				lat = append(lat, math.Inf(1))
				continue
			}
			lat = append(lat, float64(o.latency)/float64(time.Millisecond))
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d iterations, %d operations, digest %s\n", len(walls), attempted, first)
	// Read before the check, which may run the same work another way
	// (die-campaign's in-process grid) and must not set the peak.
	peak := peakRSSMiB()
	if failed == 0 {
		if err := w.check(ctx, seed, firstOut); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: output check: %v\n", err)
			correct = false
		}
	}
	if !tailSupported(lat, tailPercentile) {
		fmt.Fprintf(os.Stderr, "perfbench: only %d latency samples beyond p%.0f\n", beyond(lat, tailPercentile), 100*tailPercentile)
	}
	m := map[string]metric{
		"wall_s":           {median(walls), "s"},
		"sim_minstr_per_s": {median(rates), "Minstr/s"},
		"setup_s":          {median(setups), "s"},
		"alloc_mb":         {median(allocs), "MiB"},
		"peak_rss_mb":      {peak, "MiB"},
		"req_per_s":        {float64(ops) / opTime.Seconds(), "req/s"},
		"latency_p50_ms":   {finite(quantile(lat, 0.5)), "ms"},
		"latency_tail_ms":  {finite(quantile(lat, tailPercentile)), "ms"},
	}
	return &result{Correct: correct && failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
}

// Before each iteration, prepare is timed for setup_s in a batch that
// lasts at least setupBatchTime: setupChunk preparations under one
// timer, closed untimed, repeated. One preparation can take well under
// a microsecond, so it is timed over many; and since the batches are
// spread over the whole run, like the iterations, no short slow spell
// of the host sets the figure.
const (
	setupBatchTime = 2 * time.Millisecond
	setupChunk     = 4
)

// setupBatch is the mean time one prepare call takes over one batch:
// from its start until the first operation could be sent.
func setupBatch(w benchmark, seed int64) (float64, error) {
	its := make([]*iteration, 0, setupChunk)
	var spent time.Duration
	n := 0
	for start := time.Now(); n == 0 || time.Since(start) < setupBatchTime; {
		t := time.Now()
		for k := 0; k < setupChunk; k++ {
			it, err := w.prepare(seed, n+k)
			if err != nil {
				for _, it := range its {
					it.close()
				}
				return 0, err
			}
			its = append(its, it)
		}
		spent += time.Since(t)
		n += len(its)
		for _, it := range its {
			it.close()
		}
		its = its[:0]
	}
	return spent.Seconds() / float64(n), nil
}

// peakRSSMiB is the larger of the process's own peak resident set
// (VmHWM) and that of its largest exited child (die-campaign's dist
// workers, which run its simulations). The own peak reads as 0 where
// /proc is unavailable.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	children := 0.0
	if syscall.Getrusage(syscall.RUSAGE_CHILDREN, &ru) == nil {
		children = float64(ru.Maxrss) / 1024 // KiB on Linux
	}
	return math.Max(selfPeakRSSMiB(), children)
}

func selfPeakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
