package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/inject"
	"repro/internal/sim"
)

// TestUnaryBodiesMatchDirectEncoding requires every unary endpoint to
// answer with exactly the bytes the direct sim call encodes to (the
// same bytes a dist worker returns), plus the body's trailing newline.
func TestUnaryBodiesMatchDirectEncoding(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	cfg := cpu.DefaultConfig()
	row := sim.RowSpec{Scheme: sim.FFWBBR, Benchmark: "qsort", MV: 400, Maps: 2, Seed: 1, Instructions: 20_000, CPU: cfg}
	die := sim.DieSpec{Scheme: sim.FFWBBR, Benchmark: "qsort", DieSeed: 3, WorkSeed: 1, Instructions: 10_000, CPU: cfg}
	chaos := sim.ChaosSpec{
		Benchmark: "qsort", DieSeed: 3, WorkSeed: 1,
		Inject:  inject.Params{Seed: 9, Intensity: 5},
		StartMV: 400, Epochs: 4, EpochInstructions: 8_000, CPU: cfg,
		Backoff: dvfs.BackoffConfig{UpThreshold: 3, DownThreshold: 2, StableEpochs: 2},
	}
	hs := sim.HierSpec{
		Scheme: sim.FFWBBR, Instructions: 10_000, CPU: cfg,
		Cores: []sim.HierCoreSpec{
			{Benchmark: "qsort", MV: 400, MapSeed: 3, WorkSeed: 1},
			{Benchmark: "dijkstra", MV: 560, MapSeed: 4, WorkSeed: 2},
		},
	}
	ctx := context.Background()
	cases := []struct {
		path   string
		spec   any
		direct func() (any, error)
	}{
		{"/v1/eval", row, func() (any, error) { return sim.NewEngine(1).EvalRow(ctx, row) }},
		{"/v1/die", die, func() (any, error) {
			return sim.NewEngine(1).SweepDie(ctx, die.Scheme, die.Benchmark, die.DieSeed, die.WorkSeed, die.Instructions, die.CPU)
		}},
		{"/v1/chaos", chaos, func() (any, error) { return sim.NewEngine(1).RunChaos(ctx, chaos) }},
		{"/v1/hier", hs, func() (any, error) { return sim.RunHierarchy(ctx, hs) }},
	}
	for _, c := range cases {
		t.Run(c.path, func(t *testing.T) {
			res, err := c.direct()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			body, err := json.Marshal(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			status, got, _ := post(t, ts.URL, c.path, string(body), nil)
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, got)
			}
			if !bytes.Equal(got, append(want, '\n')) {
				t.Errorf("body differs from the direct encoding:\n%s\n%s", got, want)
			}
		})
	}
}

// TestSweepRowsMatchDirectEncoding runs a real grid through /v1/sweep:
// row i must be the i-th cell of the scheme-major expansion, and its
// result bytes must equal the direct EvalRow encoding of that cell.
func TestSweepRowsMatchDirectEncoding(t *testing.T) {
	s := New(Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		s.Close()
		ts.Close()
	})
	schemes := []sim.Scheme{sim.SimpleWdis, sim.WilkersonPlus, sim.FBAPlus, sim.IDCPlus}
	mvs := []int{400, 560}
	spec := SweepSpec{Schemes: schemes, Benchmarks: []string{"qsort"}, MVs: mvs, Maps: 2, Seed: 1, Instructions: 20_000}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	status, got, _ := post(t, ts.URL, "/v1/sweep", string(body), nil)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, got)
	}
	cells := len(schemes) * len(mvs)
	assertCleanStream(t, got, cells, true)
	lines := bytes.Split(bytes.TrimSuffix(got, []byte("\n")), []byte("\n"))
	ctx := context.Background()
	for i, line := range lines[:cells] {
		var row struct {
			Index  int             `json:"index"`
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatal(err)
		}
		cell := sim.RowSpec{
			Scheme: schemes[i/len(mvs)], Benchmark: "qsort", MV: mvs[i%len(mvs)],
			Maps: 2, Seed: 1, Instructions: 20_000, CPU: cpu.DefaultConfig(),
		}
		res, err := sim.NewEngine(1).EvalRow(ctx, cell)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if row.Index != i || !bytes.Equal(row.Result, want) {
			t.Errorf("row %d (index %d, %s at %d mV) differs from the direct encoding:\n%s\n%s",
				i, row.Index, cell.Scheme, cell.MV, row.Result, want)
		}
	}
}
