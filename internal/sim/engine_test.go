package sim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cpu"
	"repro/internal/dvfs"
)

// TestEvaluateDeterministicAcrossWorkers is the engine's hard
// invariant: the same seed produces identical cells at any worker
// count, including 1. The race tier runs this same test under -race.
func TestEvaluateDeterministicAcrossWorkers(t *testing.T) {
	cfg := QuickConfig()
	cfg.Instructions = 20_000
	benchmarks := []string{"adpcm", "qsort"}
	ops := []dvfs.OperatingPoint{op(t, 560), op(t, 400)}

	var want []EvalCell
	for _, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		cells, err := NewEngine(w).Evaluate(context.Background(), cfg, EvalSchemes(), benchmarks, ops)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if want == nil {
			want = cells
			continue
		}
		if !reflect.DeepEqual(cells, want) {
			t.Errorf("workers=%d produced different cells than workers=1", w)
		}
	}
}

// TestEvaluateFailingBenchmarkAbortsSiblings is the regression test for
// the old fan-out's failure mode: one benchmark failing no longer lets
// the sibling jobs run a full cell to completion. Siblings here block
// until cancellation reaches them — if the first error did not
// propagate promptly, the test would hang rather than pass.
func TestEvaluateFailingBenchmarkAbortsSiblings(t *testing.T) {
	boom := errors.New("injected simulator failure")
	e := NewEngine(2)
	var cancelled atomic.Int64
	var blocked atomic.Bool
	e.runFn = func(ctx context.Context, spec RunSpec) (cpu.Result, error) {
		switch {
		case spec.Benchmark == "qsort":
			// qsort's baseline jobs are scheduled after adpcm's, so by
			// the time one fails a sibling is already parked below.
			return cpu.Result{}, boom
		case blocked.CompareAndSwap(false, true):
			// Exactly one adpcm job parks on the context (leaving the
			// other worker free to reach the failing job) and returns
			// only when cancellation reaches it.
			<-ctx.Done()
			cancelled.Add(1)
			return cpu.Result{}, ctx.Err()
		}
		return cpu.Result{}, nil
	}
	cfg := QuickConfig()
	_, err := e.Evaluate(context.Background(), cfg, []Scheme{EightT}, []string{"adpcm", "qsort"}, []dvfs.OperatingPoint{op(t, 560)})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected failure (aggregated)", err)
	}
	if cancelled.Load() == 0 {
		t.Error("no sibling observed cancellation")
	}
}

// TestEvaluateSharedEngineMemoizes pins the property cmd/lvreport relies
// on: re-requesting the same grid on one engine simulates nothing new.
func TestEvaluateSharedEngineMemoizes(t *testing.T) {
	e := NewEngine(0)
	cfg := QuickConfig()
	cfg.Instructions = 10_000
	args := func() ([]EvalCell, error) {
		return e.Evaluate(context.Background(), cfg, []Scheme{SimpleWdis, FFWBBR}, []string{"adpcm"}, []dvfs.OperatingPoint{op(t, 560)})
	}
	first, err := args()
	if err != nil {
		t.Fatal(err)
	}
	_, missesAfterFirst := e.MemoStats()
	second, err := args()
	if err != nil {
		t.Fatal(err)
	}
	hits, missesAfterSecond := e.MemoStats()
	if missesAfterSecond != missesAfterFirst {
		t.Errorf("second evaluation simulated %d new runs, want 0", missesAfterSecond-missesAfterFirst)
	}
	if hits == 0 {
		t.Error("no memo hits recorded")
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("memoized evaluation diverged from the original")
	}
}

func TestEngineRunMemoizesSpec(t *testing.T) {
	e := NewEngine(1)
	var computes atomic.Int64
	inner := e.runFn
	e.runFn = func(ctx context.Context, spec RunSpec) (cpu.Result, error) {
		computes.Add(1)
		return inner(ctx, spec)
	}
	spec := RunSpec{Scheme: DefectFree, Benchmark: "adpcm", Op: op(t, 560),
		MapSeed: 1, WorkSeed: 1, Instructions: 5_000, CPU: cpu.DefaultConfig()}
	a, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("memoized result differs from computed result")
	}
	if c := computes.Load(); c != 1 {
		t.Errorf("spec simulated %d times, want 1", c)
	}
	if hits, misses := e.MemoStats(); hits != 1 || misses != 1 {
		t.Errorf("memo stats = %d hits / %d misses, want 1/1", hits, misses)
	}
}

func TestEvaluateValidatesInputsUpFront(t *testing.T) {
	cfg := QuickConfig()
	ctx := context.Background()
	cases := []struct {
		name       string
		schemes    []Scheme
		benchmarks []string
		ops        []dvfs.OperatingPoint
	}{
		{"unknown scheme", []Scheme{"NoSuchScheme"}, nil, nil},
		{"unknown benchmark", nil, []string{"nonesuch"}, nil},
		{"duplicate benchmark", nil, []string{"adpcm", "adpcm"}, nil},
		{"empty ops", nil, nil, []dvfs.OperatingPoint{}},
		{"empty benchmarks", nil, []string{}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(1)
			// Any attempt to simulate means validation was not up front.
			e.runFn = func(context.Context, RunSpec) (cpu.Result, error) {
				t.Error("Run reached despite invalid inputs")
				return cpu.Result{}, nil
			}
			if _, err := e.Evaluate(ctx, cfg, tc.schemes, tc.benchmarks, tc.ops); err == nil {
				t.Error("invalid inputs must be rejected")
			}
		})
	}
}

func TestEvaluateHonoursContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := QuickConfig()
	if _, err := NewEngine(2).Evaluate(ctx, cfg, []Scheme{EightT}, []string{"adpcm"}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSweepDieContextMatchesSequential(t *testing.T) {
	a, err := NewEngine(1).SweepDie(context.Background(), FFWBBR, "adpcm", 11, 11, 15_000, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewEngine(3).SweepDie(context.Background(), FFWBBR, "adpcm", 11, 11, 15_000, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("parallel die sweep diverged from the sequential one")
	}
}

// TestEngineJobTimeout: a run that outlives the engine's job timeout
// fails with a deadline error naming the run, without poisoning the
// engine for later (faster) runs.
func TestEngineJobTimeout(t *testing.T) {
	e := NewEngine(1)
	e.SetJobTimeout(10 * time.Millisecond)
	slow := true
	inner := e.runFn
	e.runFn = func(ctx context.Context, spec RunSpec) (cpu.Result, error) {
		if slow {
			<-ctx.Done()
			return cpu.Result{}, ctx.Err()
		}
		return inner(ctx, spec)
	}
	spec := RunSpec{Scheme: DefectFree, Benchmark: "adpcm", Op: op(t, 560),
		WorkSeed: 1, Instructions: 5_000, CPU: cpu.DefaultConfig()}
	if _, err := e.Run(context.Background(), spec); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want a deadline error", err)
	}
	// The memo must not cache the timeout: the run retries once the
	// simulator behaves.
	slow = false
	e.SetJobTimeout(0)
	if _, err := e.Run(context.Background(), spec); err != nil {
		t.Fatalf("run after timeout: %v", err)
	}
}
