package main

import (
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// BENCHMARK.json names exactly the workloads, end-to-end metrics and
// per-layer metrics (in catalog order, with their units) this program
// reports.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q is not implemented", w.Name)
		}
	}
	if len(bj.PerLayer) != len(layerCatalog) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalog %d", len(bj.PerLayer), len(layerCatalog))
	}
	for i, m := range bj.PerLayer {
		if c := layerCatalog[i]; m.Name != c.name || m.Unit != c.unit {
			t.Errorf("per_layer[%d] = %s (%s), catalog has %s (%s)", i, m.Name, m.Unit, c.name, c.unit)
		}
	}

	// Every per-layer metric names the end-to-end metrics it should move
	// and the workloads it should (and should not) move them on.
	e2e := map[string]bool{"quality of the attribution": true}
	for _, m := range bj.EndToEnd {
		e2e[m.Name] = true
	}
	known := map[string]bool{"all": true, "none": true}
	for name := range workloads {
		known[name] = true
	}
	for _, c := range layerCatalog {
		for _, m := range strings.Split(c.moves, ", ") {
			if !e2e[m] {
				t.Errorf("%s should move %q, which is no end-to-end metric", c.name, m)
			}
		}
		for _, w := range strings.Split(c.mostlyOn+", "+c.littleOn, ", ") {
			if !known[w] {
				t.Errorf("%s names workload %q, which does not exist", c.name, w)
			}
		}
	}

	w := benchmark{
		name: "fake",
		prepare: func(int64, int) (*iteration, error) {
			return &iteration{
				run: func(context.Context) (iterOut, error) {
					return iterOut{ops: []opSample{{latency: time.Millisecond}}, output: []byte("x"), instrs: 1}, nil
				},
				close: func() {},
			}, nil
		},
		check: func(context.Context, int64, iterOut) error { return nil },
	}
	res, err := runEndToEnd(context.Background(), w, 5, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(bj.EndToEnd) {
		t.Errorf("the program reports %d end-to-end metrics, BENCHMARK.json lists %d", len(res.Metrics), len(bj.EndToEnd))
	}
	for _, m := range bj.EndToEnd {
		if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): program reports %+v", m.Name, m.Unit, got)
		}
	}
}
