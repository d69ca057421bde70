// Command benchjson summarizes repeated benchmark runs as one
// BENCH_*.json object. It reads lines from standard input and writes,
// for every metric, the 25th, 50th and 75th percentiles of its samples,
// their count and the metric's unit, together with the host's
// GOMAXPROCS and CPU count. It reads two kinds of line and skips every
// other:
//
//   - a perfbench result, the JSON object that `bash perfbench/run.sh`
//     prints last: each metric's value is one sample;
//   - a `go test -bench` result: its ns/op is one sample of the metric
//     named by the benchmark, without the -GOMAXPROCS suffix.
//
// It writes nothing and exits 1 when a perfbench run reports a wrong
// output or a failed operation, or when a metric has fewer than ten
// samples. scripts/bench.sh pipes every BENCH file's runs through it:
//
//	for seed in 1 2 ...; do bash perfbench/run.sh --seed "$seed" ... | tail -n 1; done | go run ./scripts/benchjson
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"

	"repro/internal/stats"
)

// minSamples is the fewest samples a metric's quartiles are reported
// from.
const minSamples = 10

// result is the part of a perfbench result line this command reads.
type result struct {
	Correct bool              `json:"correct"`
	Failed  int               `json:"failed"`
	Metrics map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is one metric's spread over its samples.
type summary struct {
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

type report struct {
	GOMAXPROCS int                `json:"gomaxprocs"`
	CPUs       int                `json:"cpus"`
	Metrics    map[string]summary `json:"metrics"`
}

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// run reads runs from in and writes their summary to out.
func run(in io.Reader, out io.Writer) error {
	samples, units := map[string][]float64{}, map[string]string{}
	sc := bufio.NewScanner(in)
	// A traced perfbench result is one line of every per-layer metric.
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		r, err := parse(sc.Text())
		if err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
		for _, name := range slices.Sorted(maps.Keys(r.Metrics)) {
			m := r.Metrics[name]
			if u, ok := units[name]; ok && u != m.Unit {
				return fmt.Errorf("line %d: metric %s in %s, earlier in %s", n, name, m.Unit, u)
			}
			units[name] = m.Unit
			samples[name] = append(samples[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("reading input: %w", err)
	}
	if len(samples) == 0 {
		return errors.New("no samples in input")
	}
	rep := report{GOMAXPROCS: runtime.GOMAXPROCS(0), CPUs: runtime.NumCPU(), Metrics: map[string]summary{}}
	for _, name := range slices.Sorted(maps.Keys(samples)) {
		xs := samples[name]
		if len(xs) < minSamples {
			return fmt.Errorf("metric %s has %d samples, want at least %d", name, len(xs), minSamples)
		}
		// Percentile fails only on no samples or p outside [0, 100].
		p25, _ := stats.Percentile(xs, 25)
		median, _ := stats.Percentile(xs, 50)
		p75, _ := stats.Percentile(xs, 75)
		rep.Metrics[name] = summary{P25: p25, Median: median, P75: p75, N: len(xs), Unit: units[name]}
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding summary: %w", err)
	}
	_, err = out.Write(append(b, '\n'))
	return err
}

// parse reads the metrics of one input line. A `go test -bench` line
// starts with the benchmark's name, its iteration count and its ns/op.
func parse(line string) (result, error) {
	var r result
	switch {
	case strings.HasPrefix(line, "{"):
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return r, fmt.Errorf("perfbench result: %w", err)
		}
		if !r.Correct {
			return r, errors.New(`perfbench run reports "correct":false`)
		}
		if r.Failed > 0 {
			return r, fmt.Errorf("perfbench run failed %d operations", r.Failed)
		}
	case strings.HasPrefix(line, "Benchmark"):
		f := strings.Fields(line)
		if len(f) < 4 || f[3] != "ns/op" {
			return r, fmt.Errorf("benchmark line %q has no ns/op", line)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return r, fmt.Errorf("benchmark line %q: %w", line, err)
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		r.Metrics = map[string]metric{name: {v, "ns/op"}}
	}
	return r, nil
}
