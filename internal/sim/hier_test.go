package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/inject"
)

// TestHierCalibrationMatchesTrace is the calibration regression: the
// event-driven single-core configuration must reproduce the
// trace-driven model on the Fig 3 anchor points. Demand-traffic counts
// are exactly equal by construction (same rig, same stream, same
// drain/fill ordering); cycle counts stay within the pinned
// CalibrationTolerance, the residual coming from the contention
// effects the event model adds on purpose (DESIGN.md).
func TestHierCalibrationMatchesTrace(t *testing.T) {
	anchors := []struct {
		scheme Scheme
		bench  string
		mv     int
	}{
		{DefectFree, "qsort", 560},
		{DefectFree, "dijkstra", 400},
		{SimpleWdis, "qsort", 560},
		{SimpleWdis, "qsort", 400},
		{FFWBBR, "qsort", 400},
		{FFWBBR, "dijkstra", 400},
	}
	const n = 40_000
	for _, a := range anchors {
		op, err := dvfs.PointAt(a.mv)
		if err != nil {
			t.Fatal(err)
		}
		rs := RunSpec{
			Scheme: a.scheme, Benchmark: a.bench, Op: op,
			MapSeed: 7, WorkSeed: 1, Instructions: n, CPU: cpu.DefaultConfig(),
		}
		trace, terr := RunContext(context.Background(), rs)
		// The calibration identity ceil(10+x) = 10+ceil(x) holds only when
		// the L2 shares the core's clock domain: L2MV pins the uncore to
		// the core's point and the default link latency is zero.
		hs := HierSpec{
			Scheme: a.scheme, L2MV: a.mv, Instructions: n, CPU: cpu.DefaultConfig(),
			Cores: []HierCoreSpec{{Benchmark: a.bench, MV: a.mv, MapSeed: 7, WorkSeed: 1}},
		}
		ev, herr := RunHierarchy(context.Background(), hs)
		if errors.Is(terr, ErrYield) || errors.Is(herr, ErrYield) {
			if errors.Is(terr, ErrYield) != errors.Is(herr, ErrYield) {
				t.Errorf("%s/%s@%dmV: yield disagreement: trace %v, event %v", a.scheme, a.bench, a.mv, terr, herr)
			}
			continue
		}
		if terr != nil || herr != nil {
			t.Fatalf("%s/%s@%dmV: trace %v, event %v", a.scheme, a.bench, a.mv, terr, herr)
		}
		er := ev.Cores[0].Result
		if er.Instructions != trace.Instructions || er.Executed != trace.Executed {
			t.Errorf("%s/%s@%dmV: instruction counts diverged: event %d/%d, trace %d/%d",
				a.scheme, a.bench, a.mv, er.Instructions, er.Executed, trace.Instructions, trace.Executed)
		}
		if er.L2Reads != trace.L2Reads || er.MemReads != trace.MemReads {
			t.Errorf("%s/%s@%dmV: demand traffic diverged: event L2=%d mem=%d, trace L2=%d mem=%d",
				a.scheme, a.bench, a.mv, er.L2Reads, er.MemReads, trace.L2Reads, trace.MemReads)
		}
		rel := math.Abs(er.Cycles()-trace.Cycles()) / trace.Cycles()
		if rel > CalibrationTolerance {
			t.Errorf("%s/%s@%dmV: cycles off by %.4f (> %v): event %.0f, trace %.0f",
				a.scheme, a.bench, a.mv, rel, CalibrationTolerance, er.Cycles(), trace.Cycles())
		}
	}
}

func demoHierSpec() HierSpec {
	return HierSpec{
		Scheme: FFWBBR, Instructions: 15_000, CPU: cpu.DefaultConfig(),
		Cores: []HierCoreSpec{
			{Benchmark: "qsort", MV: 400, MapSeed: 3, WorkSeed: 1},
			{Benchmark: "dijkstra", MV: 560, MapSeed: 4, WorkSeed: 2},
		},
	}
}

func TestHierSpecValidate(t *testing.T) {
	if err := demoHierSpec().Validate(); err != nil {
		t.Fatalf("demo spec invalid: %v", err)
	}
	bad := []func(*HierSpec){
		func(s *HierSpec) { s.Cores = nil },
		func(s *HierSpec) { s.Instructions = 0 },
		func(s *HierSpec) { s.Scheme = "" },
		func(s *HierSpec) { s.Scheme = "zzz" },
		func(s *HierSpec) { s.Cores[1].Scheme = "zzz" },
		func(s *HierSpec) { s.L2MV = 123 },
		func(s *HierSpec) { s.Cores[0].MV = 123 },
		func(s *HierSpec) { s.Cores[1].Benchmark = "no-such-benchmark" },
	}
	for i, mutate := range bad {
		s := demoHierSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, s)
		}
	}
	// A per-core scheme override fills an empty run-level scheme.
	s := demoHierSpec()
	s.Scheme = ""
	s.Cores[0].Scheme = DefectFree
	if err := s.Validate(); err == nil {
		t.Error("core without any scheme accepted")
	}
	s.Cores[1].Scheme = EightT
	if err := s.Validate(); err != nil {
		t.Errorf("per-core schemes rejected: %v", err)
	}
}

// TestHierSharedL2SeesContention pins the multicore point of the
// exercise: two cores' demand reads meet in one L2, and the bank/MSHR
// ledgers record nonzero waiting.
func TestHierSharedL2SeesContention(t *testing.T) {
	res, err := RunHierarchy(context.Background(), demoHierSpec())
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Cores[0].Result.L2Reads + res.Cores[1].Result.L2Reads; res.L2.Reads != want {
		t.Errorf("L2 reads %d, cores issued %d", res.L2.Reads, want)
	}
	if res.L2.BankWaitFS == 0 {
		t.Error("two contending cores produced zero bank wait")
	}
	if res.Events == 0 || res.ElapsedFS == 0 {
		t.Errorf("no kernel accounting: %+v", res)
	}
}

// TestHierDistByteIdentical runs the same hierarchy grid through
// dist.Run at 1 and 2 local workers and requires byte-identical raw
// results — the engine-per-run isolation contract.
func TestHierDistByteIdentical(t *testing.T) {
	specs := []HierSpec{demoHierSpec(), demoHierSpec()}
	specs[1].L2MV = 560
	specs[1].Banks = 2
	payloads := make([]json.RawMessage, len(specs))
	for i, s := range specs {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		payloads[i] = b
	}
	run := func(workers int) []json.RawMessage {
		res, done, err := dist.Run(context.Background(), KindHier, payloads, dist.Options{LocalWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range done {
			if !d {
				t.Fatalf("job %d not done", i)
			}
		}
		return res
	}
	r1, r2 := run(1), run(2)
	for i := range r1 {
		if string(r1[i]) != string(r2[i]) {
			t.Errorf("job %d diverged across worker counts:\n%s\n%s", i, r1[i], r2[i])
		}
	}
}

func demoHierChaosSpec() HierChaosSpec {
	return HierChaosSpec{
		Cores: []HierChaosCoreSpec{
			{Benchmark: "qsort", DieSeed: 3, WorkSeed: 1, StartMV: 400},
			{Benchmark: "dijkstra", DieSeed: 4, WorkSeed: 2, StartMV: 440},
		},
		Inject: inject.Params{Seed: 9, Intensity: 5},
		Epochs: 4, EpochInstructions: 15_000,
		CPU:     cpu.DefaultConfig(),
		Backoff: dvfs.BackoffConfig{UpThreshold: 3, DownThreshold: 2, StableEpochs: 2},
	}
}

func TestHierChaosSpecValidate(t *testing.T) {
	if err := demoHierChaosSpec().Validate(); err != nil {
		t.Fatalf("demo spec invalid: %v", err)
	}
	bad := []func(*HierChaosSpec){
		func(s *HierChaosSpec) { s.Cores = nil },
		func(s *HierChaosSpec) { s.Epochs = 0 },
		func(s *HierChaosSpec) { s.EpochInstructions = 0 },
		func(s *HierChaosSpec) { s.L2MV = 123 },
		func(s *HierChaosSpec) { s.Cores[0].StartMV = 123 },
		func(s *HierChaosSpec) { s.Cores[1].Benchmark = "no-such-benchmark" },
		func(s *HierChaosSpec) { s.Inject.Intensity = -1 },
		func(s *HierChaosSpec) { s.Backoff.UpThreshold = -1 },
	}
	for i, mutate := range bad {
		s := demoHierChaosSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, s)
		}
	}
}

func TestHierChaosRunsAndIsDeterministic(t *testing.T) {
	run := func() *HierChaosResult {
		res, err := RunHierChaos(context.Background(), demoHierChaosSpec())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run()
	if len(r1.Epochs) != 4 || len(r1.Cores) != 2 {
		t.Fatalf("campaign shape: %d epochs, %d cores", len(r1.Epochs), len(r1.Cores))
	}
	for _, ep := range r1.Epochs {
		for _, c := range ep.Cores {
			if c.Result.Instructions != 15_000 {
				t.Errorf("epoch %d core %d ran %d instructions", ep.Index, c.Core, c.Result.Instructions)
			}
		}
	}
	// The campaign L2 ledger is the sum of the per-epoch deltas.
	var reads uint64
	for _, ep := range r1.Epochs {
		reads += ep.L2.Reads
	}
	if reads != r1.L2.Reads {
		t.Errorf("epoch L2 deltas sum to %d, campaign total %d", reads, r1.L2.Reads)
	}
	if !reflect.DeepEqual(r1, run()) {
		t.Error("repeated campaign diverged")
	}
}

// TestHierChaosSingleCoreMatchesSeeds pins that a one-core campaign
// uses the exact same injector seed schedule as the historical
// single-core path (salt 0), keeping old chaos results comparable.
func TestHierChaosSingleCoreSalt(t *testing.T) {
	spec := demoHierChaosSpec()
	spec.Cores = spec.Cores[:1]
	res, err := RunHierChaos(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	var detected uint64
	for _, ep := range res.Epochs {
		detected += ep.Cores[0].Faults.Detected
	}
	if detected == 0 {
		t.Error("intensity-5 campaign detected no faults")
	}
	if res.Cores[0].Totals.Detected != detected {
		t.Errorf("summary totals %d, epoch sum %d", res.Cores[0].Totals.Detected, detected)
	}
}
