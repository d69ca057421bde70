package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/golden"
	"repro/internal/inject"
)

// TestMain lets the test binary serve as its own dist worker, so the
// cross-surface test can run grids at -shards 2 exactly as the commands
// do, and fails on a golden file that no test checked.
func TestMain(m *testing.M) {
	dist.MaybeWorkerMain()
	golden.Main(m, nil)
}

// surfaceCase is one small spec of a job kind plus its direct
// (dist-free) computation.
type surfaceCase struct {
	kind   string
	spec   any
	direct func(ctx context.Context) (any, error)
}

// surfaceCases returns one small spec of every job kind. The serve
// package's cross-surface test posts the same specs.
func surfaceCases() []surfaceCase {
	cfg := cpu.DefaultConfig()
	backoff := dvfs.BackoffConfig{UpThreshold: 3, DownThreshold: 2, StableEpochs: 2}
	row := RowSpec{Scheme: FFWBBR, Benchmark: "qsort", MV: 400, Maps: 2, Seed: 1, Instructions: 20_000, CPU: cfg}
	die := DieSpec{Scheme: FFWBBR, Benchmark: "qsort", DieSeed: 3, WorkSeed: 1, Instructions: 10_000, CPU: cfg}
	chaos := ChaosSpec{
		Benchmark: "qsort", DieSeed: 3, WorkSeed: 1,
		Inject:  inject.Params{Seed: 9, Intensity: 5},
		StartMV: 400, Epochs: 4, EpochInstructions: 8_000, CPU: cfg, Backoff: backoff,
	}
	hs := HierSpec{
		Scheme: FFWBBR, Instructions: 10_000, CPU: cfg,
		Cores: []HierCoreSpec{
			{Benchmark: "qsort", MV: 400, MapSeed: 3, WorkSeed: 1},
			{Benchmark: "dijkstra", MV: 560, MapSeed: 4, WorkSeed: 2},
		},
	}
	hc := HierChaosSpec{
		Cores: []HierChaosCoreSpec{
			{Benchmark: "qsort", DieSeed: 3, WorkSeed: 1, StartMV: 400},
			{Benchmark: "dijkstra", DieSeed: 4, WorkSeed: 2, StartMV: 440},
		},
		Inject: inject.Params{Seed: 9, Intensity: 5},
		Epochs: 3, EpochInstructions: 6_000, CPU: cfg, Backoff: backoff,
	}
	return []surfaceCase{
		{KindRow, row, func(ctx context.Context) (any, error) { return NewEngine(1).EvalRow(ctx, row) }},
		{KindDie, die, func(ctx context.Context) (any, error) {
			return NewEngine(1).SweepDie(ctx, die.Scheme, die.Benchmark, die.DieSeed, die.WorkSeed, die.Instructions, die.CPU)
		}},
		{KindChaos, chaos, func(ctx context.Context) (any, error) { return NewEngine(1).RunChaos(ctx, chaos) }},
		{KindHier, hs, func(ctx context.Context) (any, error) { return RunHierarchy(ctx, hs) }},
		{KindHierChaos, hc, func(ctx context.Context) (any, error) { return RunHierChaos(ctx, hc) }},
	}
}

// TestCrossSurfaceBytes requires every job kind to give the same result
// bytes three ways: the direct call encoded with json.Marshal, dist.Run
// in-process, and dist.Run across two worker processes.
func TestCrossSurfaceBytes(t *testing.T) {
	ctx := context.Background()
	for _, c := range surfaceCases() {
		t.Run(c.kind, func(t *testing.T) {
			res, err := c.direct(ctx)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			payload, err := json.Marshal(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{0, 2} {
				got, done, err := dist.Run(ctx, c.kind, []json.RawMessage{payload}, dist.Options{Shards: shards})
				if err != nil {
					t.Fatalf("shards %d: %v", shards, err)
				}
				if !done[0] {
					t.Fatalf("shards %d: job not done", shards)
				}
				if !bytes.Equal(got[0], want) {
					t.Errorf("shards %d: dist bytes differ from the direct call:\n%s\n%s", shards, got[0], want)
				}
			}
		})
	}
}
