package sim

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/ffw"
	"repro/internal/inject"
)

// goldenFile holds one sha256 per named case: "<digest>  <case>".
const goldenFile = "testdata/golden/digests.txt"

// goldenInstr keeps every golden run short: the digests pin run setup
// (fault-map draws, BBR transform and link, scheme construction,
// injector seeding) and the first twenty thousand instructions of every
// path.
const goldenInstr = 20_000

type goldenCase struct {
	name   string
	digest string
}

// goldenDigest hashes a result's JSON, or only the class of its error:
// "yield" when the scheme could not cover its fault map, "other" for
// any other failure.
func goldenDigest(t *testing.T, v any, err error) string {
	t.Helper()
	var b []byte
	switch {
	case errors.Is(err, ErrYield):
		b = []byte("error:yield")
	case err != nil:
		b = []byte("error:other")
	default:
		var merr error
		if b, merr = json.Marshal(v); merr != nil {
			t.Fatal(merr)
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// goldenCases computes every pinned case, in a fixed order.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	ctx := context.Background()
	cfg := cpu.DefaultConfig()
	backoff := dvfs.BackoffConfig{UpThreshold: 3, DownThreshold: 2, StableEpochs: 2}
	var out []goldenCase
	add := func(name string, v any, err error) {
		out = append(out, goldenCase{name, goldenDigest(t, v, err)})
	}

	// Every scheme at every Table II voltage on two fault maps.
	mapBench := map[int64]string{1: "basicmath", 2: "dijkstra"}
	for _, s := range AllSchemes() {
		for _, op := range dvfs.OperatingPoints() {
			for _, seed := range []int64{1, 2} {
				r, err := RunContext(ctx, RunSpec{
					Scheme: s, Benchmark: mapBench[seed], Op: op,
					MapSeed: seed, WorkSeed: seed, Instructions: goldenInstr, CPU: cfg,
				})
				add(fmt.Sprintf("run/%s/%dmV/map%d", s, op.VoltageMV, seed), r, err)
			}
		}
	}

	// The FFW+BBR knobs a RunSpec carries: injection and the ablations.
	at440, err := dvfs.PointAt(440)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunContext(ctx, RunSpec{
		Scheme: FFWBBR, Benchmark: "qsort", Op: at440, MapSeed: 4, WorkSeed: 4,
		Instructions: goldenInstr, CPU: cfg, Inject: inject.Params{Seed: 5, Intensity: 3},
	})
	add("run/inject", r, err)
	r, err = RunContext(ctx, RunSpec{
		Scheme: FFWBBR, Benchmark: "qsort", Op: at440, MapSeed: 4, WorkSeed: 4,
		Instructions: goldenInstr, CPU: cfg, Placement: ffw.PlacementFirstK, Scatter: true,
	})
	add("run/ablation", r, err)

	// One die per scheme across the DVFS ladder.
	for _, s := range AllSchemes() {
		d, err := NewEngine(0).SweepDie(ctx, s, "qsort", 3, 1, goldenInstr, cfg)
		add(fmt.Sprintf("die/%s", s), d, err)
	}

	c, err := NewEngine(1).RunChaos(ctx, ChaosSpec{
		Benchmark: "qsort", DieSeed: 3, WorkSeed: 1,
		Inject:  inject.Params{Seed: 9, Intensity: 5},
		StartMV: 400, Epochs: 6, EpochInstructions: 8_000, CPU: cfg, Backoff: backoff,
	})
	add("chaos", c, err)

	h, err := RunHierarchy(ctx, HierSpec{
		Scheme: FFWBBR,
		Cores: []HierCoreSpec{
			{Benchmark: "qsort", MV: 400, MapSeed: 3, WorkSeed: 1},
			{Scheme: WilkersonPlus, Benchmark: "dijkstra", MV: 480, MapSeed: 4, WorkSeed: 2},
		},
		Instructions: goldenInstr, CPU: cfg,
	})
	add("hier", h, err)

	hc, err := RunHierChaos(ctx, HierChaosSpec{
		Cores: []HierChaosCoreSpec{
			{Benchmark: "qsort", DieSeed: 3, WorkSeed: 1, StartMV: 400},
			{Benchmark: "dijkstra", DieSeed: 4, WorkSeed: 2, StartMV: 440},
		},
		Inject: inject.Params{Seed: 9, Intensity: 5},
		Epochs: 6, EpochInstructions: 6_000, CPU: cfg, Backoff: backoff,
	})
	add("hierchaos", hc, err)

	for _, s := range append(AllSchemes(), "unknown") {
		add(fmt.Sprintf("static/%s", s), math.Float64bits(L1StaticFactor(s)), nil)
	}
	return out
}

// TestGoldenDigests pins the simulator's outputs byte for byte: every
// scheme's run at every operating point, every scheme's die sweep, an
// injected chaos campaign, a mixed-scheme hierarchy run, a hierarchy
// chaos campaign and every static-power factor. A refactor must leave
// every digest unchanged; an intended numeric change rewrites the
// golden file by hand and says why.
func TestGoldenDigests(t *testing.T) {
	want := map[string]string{}
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		digest, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	for _, c := range goldenCases(t) {
		seen[c.name] = true
		switch w, ok := want[c.name]; {
		case !ok:
			t.Errorf("%s: new digest %s (case missing from %s)", c.name, c.digest, goldenFile)
		case w != c.digest:
			t.Errorf("%s: new digest %s, golden %s", c.name, c.digest, w)
		}
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: in %s but no longer computed", name, goldenFile)
		}
	}
}
