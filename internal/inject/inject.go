// Package inject is the runtime fault-injection layer: a deterministic,
// seed-driven event scheduler that makes a cache's fault exposure evolve
// *during* a simulation, the way undervolted SRAM actually misbehaves in
// the field, rather than only through the static manufacturing fault map
// the paper configures FFW/BBR against.
//
// Three fault kinds are modelled, after the software fault-injection
// campaigns used to validate undervolted SRAM designs (Soyturk et al.):
//
//   - Transient: a single-access bit flip. The access that lands on the
//     event's tick reads corrupted data; a retry of the same access reads
//     clean data (the flip does not stick).
//   - Intermittent: a spatially correlated cluster of words misbehaves
//     for a bounded window of accesses (a marginal cell straddling its
//     noise margin), then recovers.
//   - Permanent: a cluster of words fails for the remainder of the run
//     (late-life wearout), permanently shrinking the usable array.
//
// Event rates are voltage-dependent, derived from the package sram Pfail
// model (see RatePerAccess): the same intensity produces orders of
// magnitude more events at 400 mV than at 560 mV, which is what gives
// the dvfs back-off controller a gradient to climb. Clusters are
// contiguous word runs with a geometric size distribution, the
// first-order shape of MoRS's spatially correlated fault maps.
//
// Determinism contract: an Injector is driven by a single access-tick
// counter owned by its cache. All randomness comes from the constructor
// seed; for a fixed (seed, voltage, parameters) the event sequence is
// identical regardless of host, worker count, or wall-clock time.
package inject

import (
	"errors"
	"fmt"
	"math/rand"

	"repro/internal/sram"
)

// Kind classifies one injected fault event.
type Kind int

const (
	// Transient corrupts exactly one access; a retry observes clean data.
	Transient Kind = iota
	// Intermittent makes a word cluster misbehave for a window of
	// accesses, then subside.
	Intermittent
	// Permanent makes a word cluster fail for the rest of the run.
	Permanent
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Intermittent:
		return "intermittent"
	case Permanent:
		return "permanent"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// WordsPerBlock mirrors the cache geometry (8 words of 4 B per 32 B
// block); BlockMask queries answer at this granularity.
const WordsPerBlock = 8

// Params is the seed-driven injection configuration. It is a flat
// comparable struct so it can ride inside a memo-keyed RunSpec. The zero
// value disables injection entirely.
type Params struct {
	// Seed derives every random choice the injector makes.
	Seed int64
	// Intensity sets the event rate r = RatePerAccess(Intensity, mV):
	// Intensity/1000 at 400 mV, scaled down at higher voltages. Each
	// access starts an event with probability 1-e^(-r), a little below
	// r: 181 rather than 200 events per 1000 accesses at Intensity 200
	// and 400 mV. Zero disables injection.
	Intensity float64
	// TransientWeight, IntermittentWeight and PermanentWeight set the
	// event-kind mix. All three zero selects the default 0.6/0.3/0.1.
	TransientWeight, IntermittentWeight, PermanentWeight float64
	// ClusterMean scales the *extra* contiguous words in an
	// intermittent/permanent cluster beyond the first (spatial
	// correlation a la MoRS): floor(Exp*ClusterMean) of them, a
	// geometric count with mean 1/(e^(1/ClusterMean)-1), about
	// ClusterMean-1/2. Zero selects the default 1.5, a mean of 1.06.
	ClusterMean float64
	// WindowMean scales the active window of an intermittent event:
	// 1+floor(Exp*WindowMean) accesses, a mean of about WindowMean+1/2.
	// Zero selects the default 200.
	WindowMean float64
}

// Enabled reports whether these parameters inject anything.
func (p Params) Enabled() bool { return p.Intensity > 0 }

// WithSeed returns a copy with the seed replaced — used to derive
// distinct per-cache injectors from one campaign-level parameter set.
func (p Params) WithSeed(seed int64) Params {
	p.Seed = seed
	return p
}

// Validate checks the parameters.
func (p Params) Validate() error {
	switch {
	case p.Intensity < 0:
		return errors.New("inject: negative intensity")
	case p.TransientWeight < 0 || p.IntermittentWeight < 0 || p.PermanentWeight < 0:
		return errors.New("inject: negative kind weight")
	case p.ClusterMean < 0:
		return errors.New("inject: negative cluster mean")
	case p.WindowMean < 0:
		return errors.New("inject: negative window mean")
	}
	return nil
}

// normalized returns the parameters with defaults filled in.
func (p Params) normalized() Params {
	if p.TransientWeight == 0 && p.IntermittentWeight == 0 && p.PermanentWeight == 0 {
		p.TransientWeight, p.IntermittentWeight, p.PermanentWeight = 0.6, 0.3, 0.1
	}
	if p.ClusterMean == 0 {
		p.ClusterMean = 1.5
	}
	if p.WindowMean == 0 {
		p.WindowMean = 200
	}
	return p
}

// RatePerAccess converts an intensity (events per 1000 accesses at
// 400 mV) into the per-access event rate at the given voltage. The
// voltage dependence is the sram model's word-failure probability
// relative to the 400 mV anchor, so the injected-event rate falls with
// rising voltage exactly as fast as the underlying cell physics: about
// 3× per 40 mV step in the paper's region of interest, four decades
// between 400 mV and the 760 mV nominal point. An access starts an
// event with probability 1-e^(-rate) (see Injector.gap).
func RatePerAccess(intensity float64, voltageMV int) float64 {
	if intensity <= 0 {
		return 0
	}
	m := sram.NewModel()
	scale := m.PfailWord(sram.Cell6T, float64(voltageMV)) / m.PfailWord(sram.Cell6T, 400)
	if scale > 1 {
		scale = 1
	}
	return intensity * scale / 1000
}

// Stats counts injection and detection/recovery events. The injector
// fills the Injected* fields; the cache that owns the injector fills the
// rest from its detection and recovery paths.
type Stats struct {
	// Events that became active, by kind.
	InjectedTransient, InjectedIntermittent, InjectedPermanent uint64
	// Detected counts accesses whose parity-style check observed a fault.
	Detected uint64
	// CorrectedRetry counts detections recovered by a single retry
	// (transient flips).
	CorrectedRetry uint64
	// CorrectedRefetch counts detections recovered by refetching the
	// block from the next level (intermittent/permanent faults).
	CorrectedRefetch uint64
	// Uncorrected counts detections where the line could not be repaired
	// in place (the frame was disabled; data still served from below).
	Uncorrected uint64
	// DisabledLines counts frames taken out of service.
	DisabledLines uint64
	// RecoveryCycles is the total cycle cost attributed to detection and
	// recovery (retries plus refetch latency).
	RecoveryCycles uint64
}

// Injected returns the total number of injected events.
func (s Stats) Injected() uint64 {
	return s.InjectedTransient + s.InjectedIntermittent + s.InjectedPermanent
}

// Corrected returns the total number of corrected detections.
func (s Stats) Corrected() uint64 { return s.CorrectedRetry + s.CorrectedRefetch }

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.InjectedTransient += o.InjectedTransient
	s.InjectedIntermittent += o.InjectedIntermittent
	s.InjectedPermanent += o.InjectedPermanent
	s.Detected += o.Detected
	s.CorrectedRetry += o.CorrectedRetry
	s.CorrectedRefetch += o.CorrectedRefetch
	s.Uncorrected += o.Uncorrected
	s.DisabledLines += o.DisabledLines
	s.RecoveryCycles += o.RecoveryCycles
}

// Sub returns s - o fieldwise (the per-epoch delta between two
// cumulative snapshots).
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		InjectedTransient:    s.InjectedTransient - o.InjectedTransient,
		InjectedIntermittent: s.InjectedIntermittent - o.InjectedIntermittent,
		InjectedPermanent:    s.InjectedPermanent - o.InjectedPermanent,
		Detected:             s.Detected - o.Detected,
		CorrectedRetry:       s.CorrectedRetry - o.CorrectedRetry,
		CorrectedRefetch:     s.CorrectedRefetch - o.CorrectedRefetch,
		Uncorrected:          s.Uncorrected - o.Uncorrected,
		DisabledLines:        s.DisabledLines - o.DisabledLines,
		RecoveryCycles:       s.RecoveryCycles - o.RecoveryCycles,
	}
}

// activeEvent is one in-flight intermittent fault.
type activeEvent struct {
	start, end uint64 // active for ticks in [start, end)
	word, size int    // contiguous cluster [word, word+size)
}

// Injector schedules fault events over one cache's access-tick timeline.
// The owning cache calls Advance once per access (with its monotonically
// increasing tick) and then queries TransientNow / FaultyWord /
// BlockMask for the access it is about to serve. Not safe for
// concurrent use; each cache owns exactly one Injector.
type Injector struct {
	rng   *rand.Rand
	words int
	rate  float64
	p     Params

	nextTick     uint64 // tick of the next undrawn event
	transientNow bool   // a transient event fired on the current tick

	active []activeEvent // in-flight intermittent events
	inter  []uint64      // bitset: words under an active intermittent fault
	perm   []uint64      // bitset: permanently failed words

	stats Stats // Injected* fields only
}

// New builds an injector over an array of the given number of words at
// the given operating voltage. Parameters must validate; a disabled
// Params yields an injector that never fires (callers normally pass nil
// instead).
func New(words, voltageMV int, p Params) (*Injector, error) {
	if words <= 0 {
		return nil, fmt.Errorf("inject: words %d must be positive", words)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	p = p.normalized()
	in := &Injector{
		rng:   rand.New(rand.NewSource(p.Seed)),
		words: words,
		rate:  RatePerAccess(p.Intensity, voltageMV),
		p:     p,
		inter: make([]uint64, (words+63)/64),
		perm:  make([]uint64, (words+63)/64),
	}
	if in.rate > 0 {
		in.nextTick = 1 + in.gap()
	}
	return in, nil
}

// gap draws floor(Exp/rate) >= 0; the next event comes 1+gap ticks
// after the last, a geometric inter-arrival time with success
// probability 1-e^(-rate) per tick.
func (in *Injector) gap() uint64 {
	return uint64(in.rng.ExpFloat64() / in.rate)
}

// Advance moves the injector's clock to tick: events scheduled at or
// before tick are materialized and expired intermittent windows are
// retired. The owning cache must call it exactly once per access, with
// a strictly increasing tick.
func (in *Injector) Advance(tick uint64) {
	in.transientNow = false
	for in.rate > 0 && in.nextTick <= tick {
		in.spawn(in.nextTick, tick)
		in.nextTick += 1 + in.gap()
	}
	// Expire after spawning so a large tick jump also retires events
	// whose whole window fell inside the jump.
	if len(in.active) > 0 {
		kept := in.active[:0]
		expired := false
		for _, e := range in.active {
			if e.end <= tick {
				expired = true
				continue
			}
			kept = append(kept, e)
		}
		if expired {
			in.active = kept
			in.rebuildIntermittent()
		}
	}
}

// spawn materializes one event drawn for tick at; now is the clock
// position Advance is moving to.
func (in *Injector) spawn(at, now uint64) {
	w := in.p.TransientWeight + in.p.IntermittentWeight + in.p.PermanentWeight
	u := in.rng.Float64() * w
	switch {
	case u < in.p.TransientWeight:
		in.stats.InjectedTransient++
		// A transient flip is observable only by the access on its own
		// tick; Advance is called once per access so at == now except
		// when several events share one burst.
		if at == now {
			in.transientNow = true
		}
	case u < in.p.TransientWeight+in.p.IntermittentWeight:
		in.stats.InjectedIntermittent++
		word, size := in.cluster()
		dur := 1 + uint64(in.rng.ExpFloat64()*in.p.WindowMean)
		in.active = append(in.active, activeEvent{start: at, end: at + dur, word: word, size: size})
		in.setRange(in.inter, word, size)
	default:
		in.stats.InjectedPermanent++
		word, size := in.cluster()
		in.setRange(in.perm, word, size)
	}
}

// cluster draws a spatially correlated contiguous word cluster: a
// uniform start word and 1+floor(Exp*ClusterMean) words (mean
// 1+1/(e^(1/ClusterMean)-1)), clipped to the array.
func (in *Injector) cluster() (word, size int) {
	word = in.rng.Intn(in.words)
	size = 1 + int(in.rng.ExpFloat64()*in.p.ClusterMean)
	if size > in.words-word {
		size = in.words - word
	}
	return word, size
}

func (in *Injector) setRange(set []uint64, word, size int) {
	for w := word; w < word+size; w++ {
		set[w>>6] |= 1 << (uint(w) & 63)
	}
}

// rebuildIntermittent recomputes the intermittent bitset from the
// remaining active events (clusters may overlap, so clearing a retired
// event's range directly would be wrong).
func (in *Injector) rebuildIntermittent() {
	for i := range in.inter {
		in.inter[i] = 0
	}
	for _, e := range in.active {
		in.setRange(in.inter, e.word, e.size)
	}
}

// TransientNow reports whether a transient event fired on the tick most
// recently passed to Advance: the current access reads a flipped bit,
// whatever word it touches.
func (in *Injector) TransientNow() bool { return in.transientNow }

// FaultyWord reports whether word w is currently under an injected
// intermittent or permanent fault.
func (in *Injector) FaultyWord(w int) bool {
	if w < 0 || w >= in.words {
		return false
	}
	mask := uint64(1) << (uint(w) & 63)
	return (in.inter[w>>6]|in.perm[w>>6])&mask != 0
}

// PermanentWord reports whether word w has permanently failed.
func (in *Injector) PermanentWord(w int) bool {
	if w < 0 || w >= in.words {
		return false
	}
	return in.perm[w>>6]&(1<<(uint(w)&63)) != 0
}

// BlockMask returns the 8-bit injected-fault mask (intermittent or
// permanent) of the aligned 8-word block starting at block*8 — the same
// shape as faultmap.Map.BlockMask, so a cache can OR the two to get the
// frame's effective fault pattern.
func (in *Injector) BlockMask(block int) uint8 {
	base := block * WordsPerBlock
	var mask uint8
	for i := 0; i < WordsPerBlock; i++ {
		if in.FaultyWord(base + i) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// ActiveIntermittents returns the number of intermittent events
// currently in flight.
func (in *Injector) ActiveIntermittents() int { return len(in.active) }

// PermanentWords returns the number of permanently failed words.
func (in *Injector) PermanentWords() int {
	n := 0
	for _, w := range in.perm {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// InjectedStats returns the injector's event counters (Injected* fields
// only; detection and recovery are counted by the owning cache).
func (in *Injector) InjectedStats() Stats { return in.stats }
