package main

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// Inputs come from the seed alone: the same seed gives the same specs
// and request bodies, another seed gives others.
func TestSeedPlumbingInputs(t *testing.T) {
	gen := map[string]func(int64) any{
		"fig10": func(s int64) any { r, _ := fig10Runs(s); return r },
		"die":   func(s int64) any { p, _, _ := diePayloads(s); return p },
		"hier":  func(s int64) any { return hierSpecs(s) },
		"serve": func(s int64) any { r, _ := serveMix(s, 0); return r },
	}
	for name, g := range gen {
		a, b, c := g(7), g(7), g(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different inputs twice", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// The serve mix repeats a fixed number of earlier bodies byte for byte,
// each after its original.
func TestServeMixRepeatsEarlierBodies(t *testing.T) {
	reqs, err := serveMix(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	repeats := 0
	for i, r := range reqs {
		if r.repeat {
			repeats++
			if !seen[string(r.body)] {
				t.Errorf("request %d repeats a body not sent before it", i)
			}
		} else if seen[string(r.body)] {
			t.Errorf("request %d repeats a body but is not marked as a repeat", i)
		}
		seen[string(r.body)] = true
	}
	if want := serveRepeatsOf["/v1/eval"] + serveRepeatsOf["/v1/sweep"] + serveRepeatsOf["/v1/chaos"]; repeats != want {
		t.Errorf("%d repeats, want %d", repeats, want)
	}
}

// serve-mix's simulated instructions count each simulation once: a
// repeated body (a response-cache hit) and a sweep row for a cell an
// earlier request computed (a run-memo hit) add nothing.
func TestMixOutputCountsEachSimulationOnce(t *testing.T) {
	eval := request{path: "/v1/eval", body: []byte(`{"eval":1}`), cells: []string{"a"}}
	sweep := request{path: "/v1/sweep", body: []byte(`{"sweep":1}`), cells: []string{"a", "b"}}
	again := eval
	again.repeat = true
	evalReply := []byte(`{"samples":1}`)
	sweepReply := []byte(`{"index":0,"result":{"samples":1}}
{"index":1,"result":{"samples":1}}
{"done":true,"rows":2,"of":2,"complete":true}
`)
	_, instrs, err := mixOutput([]request{eval, sweep, again},
		[]response{{body: evalReply}, {body: sweepReply}, {body: evalReply}})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(2 * serveInstructions); instrs != want {
		t.Errorf("%d instructions counted, want %d (cells a and b once each)", instrs, want)
	}
}

func iterationDigest(t *testing.T, w benchmark, seed int64, iter int) string {
	t.Helper()
	it, err := w.prepare(seed, iter)
	if err != nil {
		t.Fatal(err)
	}
	defer it.close()
	out, err := it.run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range out.ops {
		if o.failed {
			t.Fatalf("%s: operation %d failed", w.name, i)
		}
	}
	return digest(out.output)
}

// The same seed gives the same output digest on every iteration (the
// serve mix's order changes between iterations, its output does not),
// and at the default seed that digest is the recorded golden one.
func TestSeedPlumbingDigests(t *testing.T) {
	ws := []benchmark{hierWorkload, serveWorkload, dieWorkload, fig10Workload}
	if testing.Short() {
		ws = ws[:3]
	}
	for _, w := range ws {
		d := iterationDigest(t, w, defaultSeed, 0)
		if again := iterationDigest(t, w, defaultSeed, 1); again != d {
			t.Errorf("%s: digest %s then %s at the same seed", w.name, d, again)
		}
		if d != golden[w.name] {
			t.Errorf("%s: digest %s, golden %s", w.name, d, golden[w.name])
		}
	}
	if iterationDigest(t, hierWorkload, defaultSeed+1, 0) == golden[hierWorkload.name] {
		t.Error("hier-chaos: another seed gave the golden digest")
	}
}

// The rebuilt campaign equals sim.RunHierChaos for one small campaign.
func TestRebuiltHierCampaignMatches(t *testing.T) {
	spec := hierSpecs(4)[0]
	spec.Epochs = 2
	tr := newTracer()
	got, _, _, err := rebuildHierChaos(context.Background(), tr, &hierAcc{}, spec, recordL1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.RunHierChaos(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(got)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		t.Fatal("rebuilt campaign differs from sim.RunHierChaos")
	}
}
