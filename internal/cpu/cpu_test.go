package cpu

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultmap"
	"repro/internal/program"
	"repro/internal/schemes"
	"repro/internal/workload"
)

func testStream(t *testing.T, name string, seed int64) *workload.Stream {
	t.Helper()
	prof, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := workload.BuildProgram(prof, seed, nil)
	if err != nil {
		t.Fatal(err)
	}
	return workload.NewStream(prof, prog, program.NewSequentialLayout(prog, 0), seed)
}

func defectFreePair(next *core.NextLevel) (core.InstrCache, core.DataCache) {
	return schemes.NewDefectFree(next), schemes.NewDefectFree(next)
}

func TestRunValidation(t *testing.T) {
	n := core.NewNextLevel(100)
	ic, dc := defectFreePair(n)
	s := testStream(t, "adpcm", 1)
	if _, err := RunContext(context.Background(), Config{Width: 0}, s, ic, dc, n, 10); err == nil {
		t.Error("zero width must error")
	}
	if _, err := RunContext(context.Background(), DefaultConfig(), s, ic, dc, n, 0); err == nil {
		t.Error("zero instructions must error")
	}
}

func TestRunCounts(t *testing.T) {
	n := core.NewNextLevel(100)
	ic, dc := defectFreePair(n)
	s := testStream(t, "basicmath", 2)
	r, err := RunContext(context.Background(), DefaultConfig(), s, ic, dc, n, 50000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Instructions != 50000 {
		t.Errorf("Instructions = %d", r.Instructions)
	}
	if r.Loads == 0 || r.Stores == 0 || r.Branches == 0 {
		t.Errorf("missing event counts: %+v", r)
	}
	if r.TakenBranches == 0 || r.TakenBranches > r.Branches {
		t.Errorf("TakenBranches = %d of %d", r.TakenBranches, r.Branches)
	}
	if r.Cycles() <= 0 {
		t.Error("no cycles accumulated")
	}
}

func TestBaselineCPIPlausible(t *testing.T) {
	// The defect-free 2-way core should land near CPI 1 on the embedded
	// workloads (gem5's arm-detailed would give 0.8-1.3 on MiBench).
	n := core.NewNextLevel(97) // 760 mV memory latency
	ic, dc := defectFreePair(n)
	s := testStream(t, "basicmath", 3)
	r, _ := RunContext(context.Background(), DefaultConfig(), s, ic, dc, n, 300000)
	if cpi := r.CPI(); cpi < 0.6 || cpi > 1.8 {
		t.Errorf("baseline CPI = %.3f, want in [0.6, 1.8]", cpi)
	}
}

func TestExtraL1LatencyCostsSubstantially(t *testing.T) {
	// The paper's central latency claim: +1 cycle on both L1s costs tens
	// of percent (Fig. 10 shows >40% at 560 mV for the +1-cycle schemes).
	run := func(extra bool) Result {
		n := core.NewNextLevel(41) // 560 mV-ish memory latency
		var ic core.InstrCache
		var dc core.DataCache
		if extra {
			ic, dc = schemes.New8T(n), schemes.New8T(n)
		} else {
			ic, dc = defectFreePair(n)
		}
		s := testStream(t, "basicmath", 4)
		r, _ := RunContext(context.Background(), DefaultConfig(), s, ic, dc, n, 300000)
		return r
	}
	base := run(false)
	slow := run(true)
	ratio := slow.Cycles() / base.Cycles()
	if ratio < 1.3 {
		t.Errorf("+1 cycle L1 ratio = %.3f, want >= 1.3 (paper: >1.4)", ratio)
	}
	if ratio > 1.8 {
		t.Errorf("+1 cycle L1 ratio = %.3f implausibly high", ratio)
	}
	// The increase must come from the L1 component.
	if slow.L1Cycles <= base.L1Cycles {
		t.Error("L1 component did not grow with L1 latency")
	}
}

func TestDefectsIncreaseMemoryComponent(t *testing.T) {
	mk := func(pfail float64) Result {
		n := core.NewNextLevel(29) // 400 mV memory latency
		var fmI, fmD *faultmap.Map
		if pfail > 0 {
			fmI = faultmapGen(8192, pfail, 5)
			fmD = faultmapGen(8192, pfail, 6)
		} else {
			fmI, fmD = faultmap.New(8192), faultmap.New(8192)
		}
		ic, err := schemes.NewSimpleWdis(fmI, n)
		if err != nil {
			t.Fatal(err)
		}
		dc, err := schemes.NewSimpleWdis(fmD, n)
		if err != nil {
			t.Fatal(err)
		}
		s := testStream(t, "basicmath", 7)
		r, _ := RunContext(context.Background(), DefaultConfig(), s, ic, dc, n, 200000)
		return r
	}
	clean := mk(0)
	dirty := mk(1e-2)
	if dirty.MemCycles <= clean.MemCycles*2 {
		t.Errorf("defects at 1e-2 should blow up memory stalls: clean=%.0f dirty=%.0f",
			clean.MemCycles, dirty.MemCycles)
	}
	if dirty.L2Reads <= clean.L2Reads*2 {
		t.Errorf("defects should multiply L2 traffic: clean=%d dirty=%d", clean.L2Reads, dirty.L2Reads)
	}
}

func TestL2PerKiloInstr(t *testing.T) {
	r := Result{Instructions: 2000, L2Reads: 50}
	if got := r.L2PerKiloInstr(); got != 25 {
		t.Errorf("L2PerKiloInstr = %v, want 25", got)
	}
	if (Result{}).L2PerKiloInstr() != 0 {
		t.Error("idle L2PerKiloInstr should be 0")
	}
}

func TestRuntimeSeconds(t *testing.T) {
	r := Result{BaseCycles: 1e6}
	if got, want := r.RuntimeSeconds(1000), 1e-3; math.Abs(got-want) > 1e-12 {
		t.Errorf("RuntimeSeconds = %v, want %v", got, want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		n := core.NewNextLevel(100)
		ic, dc := defectFreePair(n)
		s := testStream(t, "crc32", 11)
		r, _ := RunContext(context.Background(), DefaultConfig(), s, ic, dc, n, 50000)
		return r
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}
}

func TestCPIZeroInstructions(t *testing.T) {
	if (Result{}).CPI() != 0 {
		t.Error("CPI of empty result should be 0")
	}
}

func faultmapGen(words int, pfail float64, seed int64) *faultmap.Map {
	return faultmap.Generate(words, pfail, randSource(seed))
}

func randSource(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestHandComputedCycleAccounting(t *testing.T) {
	// A fully deterministic micro-program pins the timing semantics: one
	// 4-instruction straight-line block (ALU, load, ALU, store) looping
	// via an unconditional jump back to itself... TermExit restarts at the
	// entry, giving the same effect without a branch redirect charge
	// except through the exit jump path. Use a single exit block.
	prof := workload.Profile{
		Name: "anchor", SpatialLocality: 0.5, ReuseRate: 0.5,
		DataBlocks: 4, SeqProb: 1, DriftProb: 0, StreamFrac: 0,
		CodeBlocks: 2, MeanTripCount: 1,
		LoadFrac: 0.25, StoreFrac: 0.25,
		LoadUseDepProb: 0, MispredictRate: 0,
	}
	prog := &program.Program{Blocks: []program.BasicBlock{
		{Size: 4, Term: program.TermExit,
			Kinds: []program.InstrKind{program.KindALU, program.KindLoad, program.KindALU, program.KindStore}},
	}}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	next := core.NewNextLevel(50)
	ic, dc := defectFreePair(next)
	s := workload.NewStream(prof, prog, program.NewSequentialLayout(prog, 0), 1)
	const n = 4000 // 1000 block iterations
	r, err := RunContext(context.Background(), DefaultConfig(), s, ic, dc, next, n)
	if err != nil {
		t.Fatal(err)
	}
	// Expected cycles:
	//   issue: 4000 * 0.5                        = 2000
	//   no taken branches, no mispredicts, no load-use deps -> L1Cycles 0
	//   memory: cold misses only. Fetches touch 1 block (4 instrs in one
	//   32B block): 1 L1I miss -> L2 miss -> 10+50 beyond L1 latency...
	//   MissOutcome latency = l1Lat(2) + l2(10) + mem(50) = 62; charged
	//   beyond hit latency: 60. Data: the generator touches a few blocks;
	//   each cold load miss costs 60 or 10 (L2-resident after the write
	//   buffer drains? loads allocate in L2) — bounded below by 1 miss.
	if got := r.BaseCycles; got != 2000 {
		t.Errorf("BaseCycles = %v, want 2000", got)
	}
	if r.L1Cycles != 0 {
		t.Errorf("L1Cycles = %v, want 0 (no deps, no redirects, no mispredicts)", r.L1Cycles)
	}
	if r.Loads != 1000 || r.Stores != 1000 || r.Branches != 0 {
		t.Errorf("counts: loads=%d stores=%d branches=%d", r.Loads, r.Stores, r.Branches)
	}
	// Memory component: one I-side cold L2+mem miss (60) plus a handful
	// of D-side cold misses; strictly positive and far below issue.
	if r.MemCycles < 60 || r.MemCycles > 1000 {
		t.Errorf("MemCycles = %v, want small positive (cold misses only)", r.MemCycles)
	}
	if r.Executed != n {
		t.Errorf("Executed = %d, want %d", r.Executed, n)
	}
}

func TestLoadUseChargedExactly(t *testing.T) {
	// With LoadUseDepProb 1 every non-branch instruction after a load
	// stalls hitLatency-1 = 1 cycle at the 2-cycle baseline.
	prof := workload.Profile{
		Name: "dep-anchor", SpatialLocality: 0.5, ReuseRate: 0.5,
		DataBlocks: 1, SeqProb: 1, DriftProb: 0, StreamFrac: 0,
		CodeBlocks: 2, MeanTripCount: 1,
		LoadFrac: 1, StoreFrac: 0,
		LoadUseDepProb: 1, MispredictRate: 0,
	}
	prog := &program.Program{Blocks: []program.BasicBlock{
		{Size: 2, Term: program.TermExit, Kinds: []program.InstrKind{program.KindLoad, program.KindLoad}},
	}}
	next := core.NewNextLevel(50)
	ic, dc := defectFreePair(next)
	s := workload.NewStream(prof, prog, program.NewSequentialLayout(prog, 0), 2)
	const n = 1000
	r, err := RunContext(context.Background(), DefaultConfig(), s, ic, dc, next, n)
	if err != nil {
		t.Fatal(err)
	}
	// Every instruction except the very first follows a load: 999 charged
	// load-use bubbles of 1 cycle each.
	if got, want := r.L1Cycles, float64(n-1); got != want {
		t.Errorf("L1Cycles = %v, want %v (one bubble per dependent consumer)", got, want)
	}
}
