package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/inject"
)

func demoChaosSpec() ChaosSpec {
	// Calibrated so the detected-fault rate sits near 4/kilo-instr at
	// 400 mV (above the up threshold) and near 1.5 at 440 mV (below the
	// down threshold): the controller oscillates — backs off under
	// faults, creeps back down after stable epochs.
	return ChaosSpec{
		Benchmark: "qsort", DieSeed: 3, WorkSeed: 1,
		Inject:  inject.Params{Seed: 9, Intensity: 5},
		StartMV: 400, Epochs: 10, EpochInstructions: 30_000,
		CPU:     cpu.DefaultConfig(),
		Backoff: dvfs.BackoffConfig{UpThreshold: 3, DownThreshold: 2, StableEpochs: 2},
	}
}

func TestChaosSpecValidate(t *testing.T) {
	good := demoChaosSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("demo spec invalid: %v", err)
	}
	bad := []func(*ChaosSpec){
		func(s *ChaosSpec) { s.Scheme = Conventional },
		func(s *ChaosSpec) { s.Epochs = 0 },
		func(s *ChaosSpec) { s.EpochInstructions = 0 },
		func(s *ChaosSpec) { s.StartMV = 450 },
		func(s *ChaosSpec) { s.Benchmark = "no-such-benchmark" },
		func(s *ChaosSpec) { s.Inject.Intensity = -1 },
		func(s *ChaosSpec) { s.Backoff.UpThreshold = -1 },
	}
	for i, mutate := range bad {
		s := demoChaosSpec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, s)
		}
	}
}

func TestInjectionRequiresFFWBBR(t *testing.T) {
	spec := RunSpec{
		Scheme: EightT, Benchmark: "qsort", Op: dvfs.Nominal(),
		Instructions: 1000, CPU: cpu.DefaultConfig(),
		Inject: inject.Params{Seed: 1, Intensity: 1},
	}
	if _, err := RunContext(context.Background(), spec); err == nil {
		t.Fatal("injection on a scheme without recovery machinery accepted")
	}
}

// TestChaosBackoffDemo is the acceptance scenario: under injected
// faults the controller backs off to a higher voltage, and after stable
// epochs it returns to the low-voltage rung.
func TestChaosBackoffDemo(t *testing.T) {
	res, err := NewEngine(1).RunChaos(context.Background(), demoChaosSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.StepUps == 0 {
		t.Fatal("controller never backed off under a 4-faults/kI campaign")
	}
	if res.StepDowns == 0 {
		t.Fatal("controller never stepped back down after stable epochs")
	}
	// After the first step-up, a later epoch runs at 400 mV again.
	upSeen, returned := false, false
	for _, ep := range res.Epochs {
		if ep.Action == dvfs.StepUp {
			upSeen = true
		}
		if upSeen && ep.Op.VoltageMV == 400 {
			returned = true
		}
	}
	if !returned {
		t.Fatalf("never returned to 400 mV after backing off: %+v", res.Residency)
	}
	if len(res.Residency) < 2 {
		t.Fatalf("residency histogram covers %d voltages, want >= 2", len(res.Residency))
	}
	var frac float64
	for _, r := range res.Residency {
		frac += r.Frac
	}
	if frac < 0.999 || frac > 1.001 {
		t.Fatalf("residency fractions sum to %v", frac)
	}
	if res.Totals.Detected == 0 || res.Totals.Corrected() == 0 {
		t.Fatalf("campaign ledger empty: %+v", res.Totals)
	}
	if res.Totals.Detected != res.Totals.CorrectedRetry+res.Totals.CorrectedRefetch+res.Totals.Uncorrected {
		t.Fatalf("detection ledger does not balance: %+v", res.Totals)
	}
	if res.MeanNormEPI <= 0 {
		t.Fatalf("MeanNormEPI = %v", res.MeanNormEPI)
	}
}

// TestChaosFaultFreeCreepsDown: with injection disabled the controller
// walks the ladder down to the lowest rung and stays there.
func TestChaosFaultFreeCreepsDown(t *testing.T) {
	spec := demoChaosSpec()
	spec.Inject = inject.Params{}
	spec.StartMV = 480
	spec.Epochs = 12
	res, err := NewEngine(1).RunChaos(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepUps != 0 {
		t.Fatalf("fault-free campaign stepped up %d times", res.StepUps)
	}
	if res.FinalMV != 400 {
		t.Fatalf("final voltage %d mV, want 400 (lowest rung)", res.FinalMV)
	}
	if res.Totals != (inject.Stats{}) {
		t.Fatalf("fault-free campaign has nonzero fault ledger: %+v", res.Totals)
	}
	if res.Epochs[len(res.Epochs)-1].Rate != 0 {
		t.Fatal("nonzero detected rate without injection")
	}
}

// TestChaosCampaignDeterministicAcrossWorkers: the acceptance
// invariant — a fixed-seed campaign set is identical at any worker
// count.
func TestChaosCampaignDeterministicAcrossWorkers(t *testing.T) {
	specs := []ChaosSpec{demoChaosSpec(), demoChaosSpec(), demoChaosSpec()}
	specs[1].DieSeed = 4
	specs[1].Inject.Seed = 10
	specs[2].Benchmark = "dijkstra"
	specs[2].Inject.Intensity = 2

	var want []*ChaosResult
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		got, _, err := ChaosJob.Grid(context.Background(), specs, dist.Options{LocalWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("campaign results differ between workers=1 and workers=%d", workers)
		}
	}
}

// TestChaosCampaignValidatesUpFront: a bad spec in the batch fails
// before any simulation runs.
func TestChaosCampaignValidatesUpFront(t *testing.T) {
	specs := []ChaosSpec{demoChaosSpec(), {Benchmark: "qsort"}}
	_, done, err := ChaosJob.Grid(context.Background(), specs, dist.Options{LocalWorkers: 1})
	if err == nil {
		t.Fatal("invalid spec accepted")
	}
	if done != nil {
		t.Fatalf("done = %v, want nil: no job may run", done)
	}
}

// TestBuildForcingUp drives the yield-failure escape hatch with a fake
// build: no built-in benchmark reaches it, since BBR covers every die
// the campaigns draw.
func TestBuildForcingUp(t *testing.T) {
	t.Run("forced-up-to-first-coverable-point", func(t *testing.T) {
		backoff, err := dvfs.NewBackoff(dvfs.DefaultBackoffConfig(), 400)
		if err != nil {
			t.Fatal(err)
		}
		var tried []int
		err = buildForcingUp(backoff, "die 7", func(op dvfs.OperatingPoint) error {
			tried = append(tried, op.VoltageMV)
			if op.VoltageMV < 480 {
				return fmt.Errorf("map at %d mV: %w", op.VoltageMV, ErrYield)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := backoff.Current().VoltageMV; got != 480 {
			t.Fatalf("controller at %d mV, want 480", got)
		}
		if backoff.StepUps() != 2 {
			t.Fatalf("StepUps() = %d, want 2", backoff.StepUps())
		}
		if !reflect.DeepEqual(tried, []int{400, 440, 480}) {
			t.Fatalf("built at %v mV, want [400 440 480]", tried)
		}
	})
	t.Run("uncoverable-at-the-top", func(t *testing.T) {
		backoff, err := dvfs.NewBackoff(dvfs.DefaultBackoffConfig(), 400)
		if err != nil {
			t.Fatal(err)
		}
		err = buildForcingUp(backoff, "core 1 die 7", func(op dvfs.OperatingPoint) error {
			return ErrYield
		})
		if !errors.Is(err, ErrYield) {
			t.Fatalf("error %v does not wrap ErrYield", err)
		}
		for _, want := range []string{"core 1 die 7", "760 mV"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %q", err, want)
			}
		}
	})
	t.Run("other-errors-pass-through", func(t *testing.T) {
		backoff, err := dvfs.NewBackoff(dvfs.DefaultBackoffConfig(), 400)
		if err != nil {
			t.Fatal(err)
		}
		boom := errors.New("boom")
		if err := buildForcingUp(backoff, "die 7", func(dvfs.OperatingPoint) error { return boom }); err != boom {
			t.Fatalf("error %v, want the build's own error", err)
		}
		if backoff.StepUps() != 0 {
			t.Fatalf("StepUps() = %d after a non-yield error, want 0", backoff.StepUps())
		}
	})
}
