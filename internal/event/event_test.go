package event

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/golden"
)

// TestMain fails on a golden file that no test checked.
func TestMain(m *testing.M) { golden.Main(m, nil) }

func TestTimeConversions(t *testing.T) {
	if FromNS(60) != 60*Nanosecond {
		t.Errorf("FromNS(60) = %d", FromNS(60))
	}
	if got := (90 * Nanosecond).NS(); got != 90 {
		t.Errorf("NS() = %v", got)
	}
	// Table II periods, rounded to integer femtoseconds.
	if got := PeriodOf(1607); got != 622278 {
		t.Errorf("PeriodOf(1607) = %d, want 622278", got)
	}
	if got := PeriodOf(475); got != 2105263 {
		t.Errorf("PeriodOf(475) = %d, want 2105263", got)
	}
}

// TestTieBreakGolden pins the same-tick ordering contract against a
// fixture on disk: events scheduled at equal timestamps fire in
// schedule order (sequence-number tie-break), interleaved events fire
// in (time, seq) order, and past-time scheduling clamps to Now. A
// scheduler ordered only by time is exactly the nondeterminism detflow
// exists to catch, so the ordering is held by a golden file rather
// than a property that a "mostly sorted" heap could accidentally pass.
func TestTieBreakGolden(t *testing.T) {
	e := NewEngine()
	var log []string
	emit := func(tag string) Handler {
		return func(at Time) error {
			log = append(log, fmt.Sprintf("%d %s", at, tag))
			return nil
		}
	}
	// Same-tick group scheduled out of time order, nested scheduling
	// (events scheduling same-tick and future events), and one
	// past-time schedule that must clamp.
	e.Schedule(30, emit("c0"))
	e.Schedule(10, emit("a0"))
	e.Schedule(30, emit("c1"))
	e.Schedule(10, func(at Time) error {
		log = append(log, fmt.Sprintf("%d a1+nest", at))
		e.Schedule(10, emit("a2-nested-same-tick"))
		e.Schedule(20, emit("b1-nested"))
		e.Schedule(5, emit("a3-clamped-past")) // 5 < now: clamps to 10
		return nil
	})
	e.Schedule(20, emit("b0"))
	e.Schedule(30, emit("c2"))
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/tiebreak.golden", []byte(strings.Join(log, "\n")+"\n"))
}

func TestRunIsReproducible(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		var fired []Time
		for i := 0; i < 100; i++ {
			at := Time((i * 37) % 10) // many collisions
			e.Schedule(at, func(at Time) error {
				fired = append(fired, at)
				return nil
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return fired
	}
	a, b := run(), run()
	if len(a) != 100 || len(b) != 100 {
		t.Fatalf("fired %d/%d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at event %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunUntilAndClear(t *testing.T) {
	e := NewEngine()
	var fired int
	for _, at := range []Time{5, 10, 15, 20} {
		e.Schedule(at, func(Time) error { fired++; return nil })
	}
	if err := e.RunUntil(12); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("RunUntil(12) fired %d events, want 2", fired)
	}
	if e.Now() != 12 {
		t.Errorf("Now() = %d after RunUntil(12)", e.Now())
	}
	if e.Pending() != 2 {
		t.Errorf("Pending() = %d, want 2", e.Pending())
	}
	e.Clear()
	if e.Pending() != 0 {
		t.Errorf("Pending() = %d after Clear", e.Pending())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Errorf("cleared events still fired: %d", fired)
	}
}

func TestStepErrorStopsRun(t *testing.T) {
	e := NewEngine()
	boom := fmt.Errorf("boom")
	var after bool
	e.Schedule(1, func(Time) error { return boom })
	e.Schedule(2, func(Time) error { after = true; return nil })
	if err := e.Run(); err != boom {
		t.Fatalf("Run() = %v, want boom", err)
	}
	if after {
		t.Error("event after the failing one still fired")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending() = %d, want 1", e.Pending())
	}
}

type testComp string

func (c testComp) Name() string { return string(c) }

func TestPortRoundTrip(t *testing.T) {
	e := NewEngine()
	client, server := testComp("client"), testComp("server")
	creq := NewPort[int](e, client, "req")
	cresp := NewPort[int](e, client, "resp")
	sreq := NewPort[int](e, server, "req")
	sresp := NewPort[int](e, server, "resp")
	if err := Connect(creq, sreq, 3*Picosecond); err != nil {
		t.Fatal(err)
	}
	if err := Connect(sresp, cresp, 3*Picosecond); err != nil {
		t.Fatal(err)
	}

	const service = 10 * Picosecond
	sreq.OnRecv = func(msg int, at Time) error {
		return sresp.Send(msg*2, at+service)
	}
	var gotMsg int
	var gotAt Time
	cresp.OnRecv = func(msg int, at Time) error {
		gotMsg, gotAt = msg, at
		return nil
	}
	if err := creq.Send(21, 100*Picosecond); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if gotMsg != 42 {
		t.Errorf("response = %d, want 42", gotMsg)
	}
	// 100 send + 3 link + 10 service + 3 link back.
	if want := 116 * Picosecond; gotAt != want {
		t.Errorf("response at %d, want %d", gotAt, want)
	}
}

func TestConnectRejectsMisuse(t *testing.T) {
	e1, e2 := NewEngine(), NewEngine()
	a := NewPort[int](e1, testComp("a"), "p")
	b := NewPort[int](e2, testComp("b"), "p")
	if err := Connect(a, b, 0); err == nil {
		t.Error("cross-engine connect accepted")
	}
	c := NewPort[int](e1, testComp("c"), "p")
	if err := Connect(a, c, -1); err == nil {
		t.Error("negative latency accepted")
	}
	if err := Connect(a, c, 0); err != nil {
		t.Fatal(err)
	}
	d := NewPort[int](e1, testComp("d"), "p")
	if err := Connect(a, d, 0); err == nil {
		t.Error("double connect accepted")
	}
	if err := d.Send(1, 0); err == nil {
		t.Error("send on unconnected port accepted")
	}
	if a.Peer() != c || a.Name() != "a.p" {
		t.Errorf("wiring accessors broken: peer %v name %q", a.Peer(), a.Name())
	}
}

func TestRecvHookMissingFailsRun(t *testing.T) {
	e := NewEngine()
	a := NewPort[int](e, testComp("a"), "p")
	b := NewPort[int](e, testComp("b"), "p")
	if err := Connect(a, b, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(); err == nil {
		t.Error("delivery to a hook-less port should fail the run")
	}
}
