package inject

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dvfs"
)

const testWords = 8 * 1024

func mustNew(t *testing.T, words, mv int, p Params) *Injector {
	t.Helper()
	in, err := New(words, mv, p)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{Intensity: -1},
		{Intensity: 1, TransientWeight: -0.1},
		{Intensity: 1, ClusterMean: -2},
		{Intensity: 1, WindowMean: -3},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted invalid params", p)
		}
	}
	if err := (Params{}).Validate(); err != nil {
		t.Errorf("zero Params must validate: %v", err)
	}
	if (Params{}).Enabled() {
		t.Error("zero Params must be disabled")
	}
	if !(Params{Intensity: 1}).Enabled() {
		t.Error("positive intensity must be enabled")
	}
}

func TestNewRejectsBadGeometry(t *testing.T) {
	if _, err := New(0, 400, Params{}); err == nil {
		t.Fatal("New accepted zero words")
	}
	if _, err := New(8, 400, Params{Intensity: -1}); err == nil {
		t.Fatal("New accepted invalid params")
	}
}

// TestRateVoltageDependence pins the sram-derived rate curve: monotone
// in voltage, anchored at 400 mV, and effectively zero at nominal.
func TestRateVoltageDependence(t *testing.T) {
	r400 := RatePerAccess(1, 400)
	if want := 1.0 / 1000; math.Abs(r400-want) > 1e-12 {
		t.Fatalf("rate at 400 mV = %g, want %g (anchor)", r400, want)
	}
	prev := r400
	for _, mv := range []int{440, 480, 520, 560, 760} {
		r := RatePerAccess(1, mv)
		if r >= prev {
			t.Fatalf("rate at %d mV = %g, not below rate at previous step %g", mv, r, prev)
		}
		prev = r
	}
	if r := RatePerAccess(1, 760); r > r400/1000 {
		t.Fatalf("rate at nominal = %g, want <= 1/1000 of the 400 mV rate", r)
	}
	if RatePerAccess(0, 400) != 0 {
		t.Fatal("zero intensity must give zero rate")
	}
}

// TestDeterminism: two injectors with the same seed advanced over the
// same tick sequence expose identical fault state at every step.
func TestDeterminism(t *testing.T) {
	p := Params{Seed: 42, Intensity: 30}
	a := mustNew(t, testWords, 400, p)
	b := mustNew(t, testWords, 400, p)
	for tick := uint64(1); tick <= 20000; tick++ {
		a.Advance(tick)
		b.Advance(tick)
		if a.TransientNow() != b.TransientNow() {
			t.Fatalf("tick %d: transient state diverged", tick)
		}
		if tick%64 == 0 {
			for blk := 0; blk < testWords/WordsPerBlock; blk += 97 {
				if a.BlockMask(blk) != b.BlockMask(blk) {
					t.Fatalf("tick %d: block %d mask diverged", tick, blk)
				}
			}
		}
	}
	if a.InjectedStats() != b.InjectedStats() {
		t.Fatalf("stats diverged: %+v vs %+v", a.InjectedStats(), b.InjectedStats())
	}
	if a.InjectedStats().Injected() == 0 {
		t.Fatal("campaign injected nothing at intensity 30 / 400 mV")
	}
}

// TestKindMix checks all three kinds appear under the default mix and
// that the empirical event count is in the right ballpark for the
// configured rate.
func TestKindMix(t *testing.T) {
	in := mustNew(t, testWords, 400, Params{Seed: 7, Intensity: 50})
	const ticks = 100_000
	for tick := uint64(1); tick <= ticks; tick++ {
		in.Advance(tick)
	}
	s := in.InjectedStats()
	if s.InjectedTransient == 0 || s.InjectedIntermittent == 0 || s.InjectedPermanent == 0 {
		t.Fatalf("missing kinds in %+v", s)
	}
	want := float64(ticks) * RatePerAccess(50, 400)
	got := float64(s.Injected())
	if got < want/2 || got > want*2 {
		t.Fatalf("injected %v events, want within 2x of %v", got, want)
	}
	if s.InjectedTransient < s.InjectedPermanent {
		t.Fatalf("default mix should favour transients: %+v", s)
	}
}

// TestInjectorStatistics checks what the injector draws at every
// Table II voltage, over statTicks accesses of a default-mix injector
// at Intensity 200 (one access per tick). With E an Exp(1) draw and
// r = RatePerAccess:
//   - events: the gap to the next event is 1+floor(E/r) ticks, so each
//     access starts an event independently with probability 1-e^(-r)
//     and the count is Binomial(statTicks, 1-e^(-r)). At 400 mV that is
//     9.4% below statTicks*r;
//   - kinds: given N events, each kind's count is Binomial(N, its
//     weight), the weights summing to one;
//   - cluster sizes: a cluster has floor(E*ClusterMean) extra words, at
//     least k of them with probability e^(-k/ClusterMean), k = 1..3;
//   - intermittent windows: an event stays active 1+floor(E*WindowMean)
//     accesses, at least 1+k with probability e^(-k/WindowMean), k at
//     half, one and two WindowMeans.
//
// Clusters and windows are read off the intermittent events as they
// spawn; permanent clusters come from the same draw. A cluster starting
// within three words of the array's end may be clipped and is left out,
// since its extra words are then not all seen. Each count is checked
// against its exact binomial window at a false-alarm rate of statAlpha,
// ten checks per voltage, so the test raises a false alarm at most once
// in about 16,000 seedings.
func TestInjectorStatistics(t *testing.T) {
	const (
		statTicks = 2_000_000
		statAlpha = 1e-6
	)
	// The documented defaults, written out so a changed default shows.
	const transientW, intermittentW, permanentW = 0.6, 0.3, 0.1
	const clusterMean, windowMean = 1.5, 200
	p := Params{Intensity: 200}
	clusterK := []int{1, 2, 3}
	windowK := []uint64{windowMean / 2, windowMean, 2 * windowMean}
	for _, op := range dvfs.OperatingPoints() {
		check := func(what string, got, n int, q float64) {
			t.Helper()
			if lo, hi := binomialWindow(n, q, statAlpha); got < lo || got > hi {
				t.Errorf("%d mV: %s: %d of %d, want [%d, %d] (q = %.5f, false-alarm rate %g)",
					op.VoltageMV, what, got, n, lo, hi, q, statAlpha)
			}
		}
		in := mustNew(t, testWords, op.VoltageMV, p.WithSeed(int64(op.VoltageMV)))
		var clusters, windows int
		clusterTail := make([]int, len(clusterK))
		windowTail := make([]int, len(windowK))
		var seen uint64
		for tick := uint64(1); tick <= statTicks; tick++ {
			in.Advance(tick)
			// Events spawned this tick are the newest active ones: a
			// window is at least one access, so none has expired yet.
			n := in.InjectedStats().InjectedIntermittent
			if int(n-seen) > len(in.active) {
				t.Fatalf("%d mV: an intermittent event expired on the tick it spawned", op.VoltageMV)
			}
			for _, e := range in.active[len(in.active)-int(n-seen):] {
				windows++
				for i, k := range windowK {
					if e.end-e.start >= 1+k {
						windowTail[i]++
					}
				}
				if testWords-e.word <= clusterK[len(clusterK)-1] {
					continue
				}
				clusters++
				for i, k := range clusterK {
					if e.size >= 1+k {
						clusterTail[i]++
					}
				}
			}
			seen = n
		}

		s := in.InjectedStats()
		events := int(s.Injected())
		check("events", events, statTicks, -math.Expm1(-RatePerAccess(p.Intensity, op.VoltageMV)))
		check("transient events", int(s.InjectedTransient), events, transientW)
		check("intermittent events", int(s.InjectedIntermittent), events, intermittentW)
		check("permanent events", int(s.InjectedPermanent), events, permanentW)
		for i, k := range clusterK {
			check(fmt.Sprintf("clusters with %d+ extra words", k), clusterTail[i], clusters, math.Exp(-float64(k)/clusterMean))
		}
		for i, k := range windowK {
			check(fmt.Sprintf("windows of %d+ accesses", 1+k), windowTail[i], windows, math.Exp(-float64(k)/windowMean))
		}
	}
}

// binomialWindow returns the narrowest [lo, hi] with P(K < lo) <= alpha/2
// and P(K > hi) <= alpha/2 for K ~ Binomial(n, q), 0 < q < 1: the exact
// pmf, stepped out from the mode by the ratio of successive terms until
// a term falls below 1e-300 (as in faultmap's statistics tests).
func binomialWindow(n int, q, alpha float64) (lo, hi int) {
	mode := int(float64(n+1) * q)
	lgN, _ := math.Lgamma(float64(n + 1))
	lgK, _ := math.Lgamma(float64(mode + 1))
	lgNK, _ := math.Lgamma(float64(n - mode + 1))
	peak := math.Exp(lgN - lgK - lgNK + float64(mode)*math.Log(q) + float64(n-mode)*math.Log1p(-q))
	odds := q / (1 - q)
	below := []float64{} // pmf(mode-1), pmf(mode-2), ...
	for k, pk := mode, peak; k > 0; k-- {
		if pk *= float64(k) / float64(n-k+1) / odds; pk < 1e-300 {
			break
		}
		below = append(below, pk)
	}
	above := []float64{} // pmf(mode+1), pmf(mode+2), ...
	for k, pk := mode, peak; k < n; k++ {
		if pk *= float64(n-k) / float64(k+1) * odds; pk < 1e-300 {
			break
		}
		above = append(above, pk)
	}
	lo, hi = mode-len(below), mode+len(above)
	for tail, i := 0.0, len(below)-1; i >= 0; i-- {
		if tail += below[i]; tail > alpha/2 {
			break
		}
		lo++
	}
	for tail, i := 0.0, len(above)-1; i >= 0; i-- {
		if tail += above[i]; tail > alpha/2 {
			break
		}
		hi--
	}
	return lo, hi
}

// TestIntermittentExpiry: intermittent faults activate, stay active
// within their window, and subside afterwards; permanents never do.
func TestIntermittentExpiry(t *testing.T) {
	// All-intermittent mix with a short window.
	in := mustNew(t, testWords, 400, Params{
		Seed: 3, Intensity: 20, IntermittentWeight: 1, WindowMean: 50,
	})
	sawActive := false
	for tick := uint64(1); tick <= 50_000; tick++ {
		in.Advance(tick)
		if in.ActiveIntermittents() > 0 {
			sawActive = true
		}
	}
	if !sawActive {
		t.Fatal("no intermittent event ever active")
	}
	// Jump far ahead: everything whose window ended inside the jump must
	// be retired. A handful of events spawned near the horizon can still
	// legitimately straddle it (rate x window ~ 1 active in steady state),
	// but none may linger past its own end tick.
	const horizon = 10_000_000
	in.Advance(horizon)
	for _, e := range in.active {
		if e.end <= horizon {
			t.Fatalf("event [%d,%d) still active at tick %d", e.start, e.end, uint64(horizon))
		}
	}
	if n := in.ActiveIntermittents(); n > 16 {
		t.Fatalf("%d intermittent events active at the horizon, want the steady-state handful", n)
	}
	if in.PermanentWords() != 0 {
		t.Fatal("permanent faults appeared in an all-intermittent mix")
	}
}

// TestPermanentAccumulation: permanent faults only grow.
func TestPermanentAccumulation(t *testing.T) {
	in := mustNew(t, testWords, 400, Params{Seed: 9, Intensity: 20, PermanentWeight: 1})
	prev := 0
	for tick := uint64(1); tick <= 30_000; tick++ {
		in.Advance(tick)
		if n := in.PermanentWords(); n < prev {
			t.Fatalf("permanent words shrank: %d -> %d", prev, n)
		} else {
			prev = n
		}
	}
	if prev == 0 {
		t.Fatal("no permanent faults accumulated")
	}
	for w := 0; w < testWords; w++ {
		if in.PermanentWord(w) && !in.FaultyWord(w) {
			t.Fatalf("word %d permanent but not faulty", w)
		}
	}
}

// TestClustering: with a large cluster mean, multi-word clusters occur —
// adjacent words fail together (the MoRS spatial-correlation shape).
func TestClustering(t *testing.T) {
	in := mustNew(t, testWords, 400, Params{Seed: 11, Intensity: 10, PermanentWeight: 1, ClusterMean: 4})
	for tick := uint64(1); tick <= 20_000; tick++ {
		in.Advance(tick)
	}
	events := in.InjectedStats().InjectedPermanent
	words := in.PermanentWords()
	if events == 0 {
		t.Fatal("no permanent events")
	}
	// Mean cluster size 1+1/(e^(1/4)-1) = 4.52; overlap can only shrink
	// the observed ratio, so >2 demonstrates genuine clustering.
	if ratio := float64(words) / float64(events); ratio < 2 {
		t.Fatalf("words/event = %.2f, want > 2 (clustered)", ratio)
	}
}

// TestBlockMaskMatchesFaultyWord pins the mask/word query consistency.
func TestBlockMaskMatchesFaultyWord(t *testing.T) {
	in := mustNew(t, testWords, 400, Params{Seed: 5, Intensity: 40})
	for tick := uint64(1); tick <= 10_000; tick++ {
		in.Advance(tick)
	}
	for blk := 0; blk < testWords/WordsPerBlock; blk++ {
		mask := in.BlockMask(blk)
		for i := 0; i < WordsPerBlock; i++ {
			want := in.FaultyWord(blk*WordsPerBlock + i)
			if got := mask&(1<<uint(i)) != 0; got != want {
				t.Fatalf("block %d word %d: mask %v, FaultyWord %v", blk, i, got, want)
			}
		}
	}
}

func TestStatsArithmetic(t *testing.T) {
	a := Stats{InjectedTransient: 3, Detected: 5, CorrectedRetry: 2, CorrectedRefetch: 1, RecoveryCycles: 40}
	b := Stats{InjectedTransient: 1, Detected: 2, CorrectedRetry: 1, Uncorrected: 1, RecoveryCycles: 10}
	sum := a
	sum.Add(b)
	if sum.Detected != 7 || sum.InjectedTransient != 4 || sum.RecoveryCycles != 50 {
		t.Fatalf("Add wrong: %+v", sum)
	}
	if got := sum.Sub(a); got != b {
		t.Fatalf("Sub wrong: %+v != %+v", got, b)
	}
	if sum.Corrected() != 4 {
		t.Fatalf("Corrected = %d, want 4", sum.Corrected())
	}
	if sum.Injected() != 4 {
		t.Fatalf("Injected = %d, want 4", sum.Injected())
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{Transient: "transient", Intermittent: "intermittent", Permanent: "permanent", Kind(9): "Kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}
