package main

import (
	"testing"
	"time"
)

// A span's self time is its duration minus the union of its children's
// intervals: overlapping children count once, a grandchild is charged to
// its own parent only, and a child sticking out of its parent is
// clipped.
func TestSelfTimesSubtractNestedChildren(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a by 10
		{Name: "a.child", Start: 15, End: 25, Parent: 1},
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to 90..100
	}
	want := []int64{100 - (50 + 10), 30 - 10, 30, 10, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// Virtual children (replayed work) that claim more than their parent
// took leave the parent a negative self time, which the attribution
// check rejects beyond its tolerance.
func TestVirtualChildrenOverrunIsCharged(t *testing.T) {
	tr := newTracer()
	id := tr.begin("cpu.run", "k")
	tr.end(id)
	tr.spans[id].End = tr.spans[id].Start + 100
	tr.virtual(id, "workload.stream", 60*time.Nanosecond)
	tr.virtual(id, "cache.l2", 60*time.Nanosecond)
	if s := selfTimes(tr.spans)[id]; s != -20 {
		t.Fatalf("self = %d, want -20", s)
	}
	if _, err := checkAttribution(tr.spans); err == nil {
		t.Fatal("a 20% overrun passed the attribution check")
	}
	if got := tr.spans[2].Start; got != tr.spans[id].Start+60 {
		t.Errorf("second virtual child starts at %d, want after the first", got)
	}
}

// Container spans (a whole run, row or campaign) own only the glue
// between the calls they contain; that glue is the unattributed share.
func TestUnattributedIsContainerGlue(t *testing.T) {
	spans := []span{
		{Name: "run", Start: 0, End: 100, Parent: -1},
		{Name: "bbr.link", Start: 0, End: 40, Parent: 0},
		{Name: "cpu.run", Start: 42, End: 100, Parent: 0},
		{Name: "serve.request", Start: 200, End: 300, Parent: -1}, // a layer's own root
	}
	u, err := checkAttribution(spans)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2.0 / 200; u != want {
		t.Errorf("unattributed = %v, want %v", u, want)
	}
	spans[2].Start = 60
	if _, err := checkAttribution(spans); err == nil {
		t.Error("20% glue passed a 5% tolerance")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	ran := false
	tr.do("x", func() { ran = true })
	tr.end(tr.begin("y", ""))
	if !ran {
		t.Fatal("nil tracer skipped the call")
	}
}
