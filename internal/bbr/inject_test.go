package bbr

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/faultmap"
	"repro/internal/inject"
)

func injectorFor(t *testing.T, p inject.Params) *inject.Injector {
	t.Helper()
	in, err := inject.New(icacheWords, 400, p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestFetchTransientRetry: transient flips on fetch are retry-corrected
// hits at double latency.
func TestFetchTransientRetry(t *testing.T) {
	next := core.NewNextLevel(50)
	ic, err := NewICache(faultmap.New(icacheWords), next)
	if err != nil {
		t.Fatal(err)
	}
	ic.AttachInjector(injectorFor(t, inject.Params{Seed: 2, Intensity: 900, TransientWeight: 1}))
	ic.Fetch(0x40) // cold fill
	sawRetry := false
	for i := 0; i < 2000; i++ {
		out := ic.Fetch(0x40)
		if !out.Hit {
			t.Fatalf("fetch %d: transient flip must stay a hit", i)
		}
		if out.Latency == 2*ic.HitLatency() {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Fatal("no retry observed at 90% transient rate")
	}
	fs := ic.FaultStats()
	if fs.CorrectedRetry == 0 || fs.Detected != fs.CorrectedRetry || fs.Uncorrected != 0 {
		t.Fatalf("transient-only ledger wrong: %+v", fs)
	}
	if ic.DisabledFrames() != 0 {
		t.Fatal("transient faults must not disable frames")
	}
}

// TestFetchIntermittentRefetch: an active intermittent fault on the
// fetched word invalidates the block and serves it from below; fetches
// recover to plain hits once the window subsides.
func TestFetchIntermittentRefetch(t *testing.T) {
	next := core.NewNextLevel(50)
	ic, err := NewICache(faultmap.New(icacheWords), next)
	if err != nil {
		t.Fatal(err)
	}
	ic.AttachInjector(injectorFor(t, inject.Params{Seed: 3, Intensity: 800, IntermittentWeight: 1, WindowMean: 100, ClusterMean: 6}))
	for i := 0; i < 60000; i++ {
		ic.Fetch(uint64((i % 512) * 4))
	}
	fs := ic.FaultStats()
	if fs.CorrectedRefetch == 0 {
		t.Fatalf("no invalidate-and-refetch recovery: %+v", fs)
	}
	if fs.Detected != fs.CorrectedRetry+fs.CorrectedRefetch+fs.Uncorrected {
		t.Fatalf("detection ledger does not balance: %+v", fs)
	}
	if fs.Uncorrected != 0 || ic.DisabledFrames() != 0 {
		t.Fatalf("intermittent-only campaign disabled frames: %+v", fs)
	}
	if ic.Stats().Invalidates == 0 {
		t.Fatal("recovery path did not invalidate the victim block")
	}
}

// TestFetchPermanentDisablesFrame: a permanent fault on a fetched word
// takes the frame out of service; its fetches are served from the next
// level for the rest of the run.
func TestFetchPermanentDisablesFrame(t *testing.T) {
	next := core.NewNextLevel(50)
	ic, err := NewICache(faultmap.New(icacheWords), next)
	if err != nil {
		t.Fatal(err)
	}
	ic.AttachInjector(injectorFor(t, inject.Params{Seed: 5, Intensity: 900, PermanentWeight: 1, ClusterMean: 4}))
	for i := 0; i < 40000; i++ {
		ic.Fetch(uint64((i % 256) * 4))
	}
	fs := ic.FaultStats()
	if fs.Uncorrected == 0 || fs.DisabledLines == 0 {
		t.Fatalf("no permanent escalation: %+v", fs)
	}
	if got := ic.DisabledFrames(); uint64(got) != fs.DisabledLines {
		t.Fatalf("DisabledFrames = %d, ledger says %d", got, fs.DisabledLines)
	}
	if fs.Detected != fs.CorrectedRetry+fs.CorrectedRefetch+fs.Uncorrected {
		t.Fatalf("detection ledger does not balance: %+v", fs)
	}
	// A disabled slot never hits again.
	cfg := ic.c.Config()
	g := cfg.Geometry()
	for addr := uint64(0); addr < 256*4; addr += cache.BlockBytes {
		set, way := g.Index(addr), g.DMWay(addr)
		if !ic.c.FrameDisabled(set*cfg.Ways + way) {
			continue
		}
		if out := ic.Fetch(addr); out.Hit {
			t.Fatalf("fetch to disabled frame (set %d way %d) hit", set, way)
		}
		return
	}
	t.Fatal("no disabled frame found in the touched range")
}

// TestDefectiveFetchInvariantUntouched: runtime injection must not
// perturb the static linker invariant — the manufacturing fault map is
// never mutated.
func TestDefectiveFetchInvariantUntouched(t *testing.T) {
	next := core.NewNextLevel(50)
	fm := faultmap.New(icacheWords)
	ic, err := NewICache(fm, next)
	if err != nil {
		t.Fatal(err)
	}
	ic.AttachInjector(injectorFor(t, inject.Params{Seed: 7, Intensity: 500}))
	for i := 0; i < 20000; i++ {
		ic.Fetch(uint64((i % 1024) * 4))
	}
	if ic.DefectiveFetches != 0 {
		t.Fatalf("DefectiveFetches = %d on a defect-free manufacturing map", ic.DefectiveFetches)
	}
	if fm.CountDefective() != 0 {
		t.Fatalf("manufacturing fault map mutated: %d defects", fm.CountDefective())
	}
}
