package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// attributionTolerance bounds trace.unattributed_frac: the share of
// traced wall time that no layer's self time covers. A traced run
// outside it, or with a layer whose self time is negative beyond it,
// fails.
const attributionTolerance = 0.05

// traceDir holds the span files traced runs write (inside the
// checkout, ignored by git).
const traceDir = ".bench_build/trace"

// span is one timed call into a layer. Spans of one simulation run,
// grid row or request share the key: the sim.SpecHash of its spec.
type span struct {
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 for a root
}

// tracer records spans in memory; a nil tracer records nothing. Traced
// passes run sequentially on one goroutine, so the open spans form a
// stack.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	// virt is the end of the last virtual child placed in each span.
	virt map[int]int64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), virt: map[int]int64{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open span.
func (t *tracer) begin(name, key string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		if key == "" {
			key = t.spans[parent].Key
		}
	}
	t.spans = append(t.spans, span{Name: name, Key: key, Start: t.now(), End: -1, Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = t.now()
	if n := len(t.open); n > 0 && t.open[n-1] == id {
		t.open = t.open[:n-1]
	}
}

// do runs fn inside a span.
func (t *tracer) do(name string, fn func()) {
	if t == nil {
		fn()
		return
	}
	id := t.begin(name, "")
	fn()
	t.end(id)
}

// virtual adds a child of parent for work measured elsewhere (a replay
// of the parent's call sequence): it has the measured duration and is
// laid out after the parent's earlier virtual children.
func (t *tracer) virtual(parent int, name string, d time.Duration) {
	if t == nil {
		return
	}
	p := t.spans[parent]
	at, ok := t.virt[parent]
	if !ok {
		at = p.Start
	}
	t.spans = append(t.spans, span{Name: name, Key: p.Key, Start: at, End: at + int64(d), Parent: parent})
	t.virt[parent] = at + int64(d)
}

// selfTimes returns each span's self time: its duration minus the union
// of the intervals its children cover (clipped to the span). A
// negative value means virtual children claimed more than the span
// took.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var iv [][2]int64
		var claimed int64
		for _, c := range children[i] {
			cs := spans[c]
			claimed += cs.End - cs.Start
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		covered := unionLength(iv)
		// Virtual children may overrun their parent; what overruns is
		// charged against the parent rather than silently clipped.
		if claimed > s.End-s.Start {
			covered = claimed
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		switch {
		case !started:
			curLo, curHi, started = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for i, s := range spans {
		out[s.Name] += self[i]
	}
	return out
}

// durByName sums span durations per name.
func durByName(spans []span) map[string]int64 {
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// countByName counts spans per name.
func countByName(spans []span) map[string]int {
	out := map[string]int{}
	for _, s := range spans {
		out[s.Name]++
	}
	return out
}

// containers are the spans that stand for a whole unit of work — a
// trace-driven run, a die row, a hierarchy campaign — rather than a
// call into one layer. Their self time is glue between the calls they
// contain: time the trace does not attribute to any layer.
var containers = map[string]bool{"run": true, "row": true, "campaign": true}

// checkAttribution verifies that the layers' self times add up to the
// traced wall time (the root spans): the unattributed remainder — the
// containers' own self time — is within the tolerance, and no span's
// children claim more than the span took beyond it.
func checkAttribution(spans []span) (unattributed float64, err error) {
	self := selfTimes(spans)
	var glue, rootTotal int64
	selfBy, durBy := map[string]int64{}, map[string]int64{}
	for i, s := range spans {
		d := s.End - s.Start
		if s.Parent < 0 {
			rootTotal += d
		}
		if containers[s.Name] {
			glue += self[i]
		}
		selfBy[s.Name] += self[i]
		durBy[s.Name] += d
	}
	// Replayed children are timed apart from their parent, so one span
	// may come out short on a noisy host; the check is per span name,
	// over the whole pass.
	for name, d := range durBy {
		if float64(selfBy[name]) < -attributionTolerance*float64(d) {
			return 0, fmt.Errorf("%s: children claim %.1f%% more time than the spans took",
				name, -100*float64(selfBy[name])/float64(d))
		}
	}
	unattributed = ratio(float64(glue), float64(rootTotal))
	if unattributed > attributionTolerance {
		return unattributed, fmt.Errorf("%.1f%% of traced time is unattributed (tolerance %.0f%%)",
			100*unattributed, 100*attributionTolerance)
	}
	return unattributed, nil
}

// writeSpans writes the recorded spans to traceDir.
func writeSpans(name string, seed int64, spans []span) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.json", name, seed)), b, 0o644)
}

// layerMetrics maps per-layer metric names to values.
type layerMetrics map[string]float64

// runTraced repeats the workload's traced pass until the run has
// lasted `seconds` (at least one pass) and reports every per-layer
// metric as its mean over the passes; metrics of layers the workload
// does not exercise are 0. A pass fails when a rebuilt run differs
// from the real one or the attribution check fails.
func runTraced(ctx context.Context, w benchmark, seed int64, seconds float64) (*result, error) {
	budget := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	sum := layerMetrics{}
	passes, failed := 0, 0
	for passes == 0 || time.Since(start) < budget {
		passes++
		tr := newTracer()
		lm, err := w.trace(ctx, seed, tr)
		if err == nil {
			lm["trace.unattributed_frac"], err = checkAttribution(tr.spans)
		}
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			fmt.Fprintf(os.Stderr, "perfbench: traced pass %d: %v\n", passes, err)
			failed++
			break
		}
		if err := writeSpans(w.name, seed, tr.spans); err != nil {
			return nil, err
		}
		for k, v := range lm {
			sum[k] += v
		}
	}
	m := map[string]metric{}
	for _, d := range layerCatalog {
		m[d.name] = metric{Value: sum[d.name] / float64(passes), Unit: d.unit}
	}
	return &result{Correct: failed == 0, Attempted: passes, Failed: failed, Metrics: m}, nil
}
