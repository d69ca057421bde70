package schemes

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bbr"
	"repro/internal/core"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/golden"
	"repro/internal/inject"
)

// TestMain fails on a golden file that no test checked.
func TestMain(m *testing.M) { golden.Main(m, nil) }

// l1 is a scheme cache usable on either side.
type l1 interface {
	core.DataCache
	core.InstrCache
}

func asL1[C l1](c C, err error) (l1, error) { return c, err }

// counterCases are every L1 construction the simulator wires: the
// word-disable family, the defect-oblivious Plain caches, FFW and the
// BBR instruction cache. SECDED runs on the multi-bit maps its
// simulator wiring draws.
var counterCases = []struct {
	name   string
	secded bool
	build  func(fm *faultmap.Map, n *core.NextLevel, seed int64) (l1, error)
}{
	{"Simple-wdis", false, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) { return asL1(NewSimpleWdis(fm, n)) }},
	{"SECDED", true, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) { return asL1(NewSECDED(fm, n)) }},
	{"Wilkerson+", false, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) { return asL1(NewWilkersonPlus(fm, n)) }},
	{"Bit-fix", false, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) { return asL1(NewBitFix(fm, n)) }},
	{"FBA", false, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) { return asL1(NewFBA(fm, n, 64)) }},
	{"FBA+", false, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) { return asL1(NewFBA(fm, n, 1024)) }},
	{"IDC", false, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) { return asL1(NewIDC(fm, n, 64)) }},
	{"IDC+", false, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) { return asL1(NewIDC(fm, n, 1024)) }},
	{"DefectFree", false, func(_ *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) { return NewDefectFree(n), nil }},
	{"8T", false, func(_ *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) { return New8T(n), nil }},
	{"FFW", false, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) {
		return newDataOnly(fm, n, ffw.Options{})
	}},
	{"FFW-firstk-scatter", false, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) {
		return newDataOnly(fm, n, ffw.Options{Placement: ffw.PlacementFirstK, Scatter: true})
	}},
	{"FFW-inject", false, func(fm *faultmap.Map, n *core.NextLevel, seed int64) (l1, error) {
		in, err := digestInjector(seed)
		if err != nil {
			return nil, err
		}
		return newDataOnly(fm, n, ffw.Options{Injector: in})
	}},
	{"FFW-trackdata", false, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) {
		c, err := ffw.New(fm, n, ffw.Options{TrackData: true})
		return &trackedFFW{Cache: c}, err
	}},
	{"BBR", false, func(fm *faultmap.Map, n *core.NextLevel, _ int64) (l1, error) {
		ic, err := bbr.NewICache(fm, n)
		return fetchOnly{ic}, err
	}},
	{"BBR-inject", false, func(fm *faultmap.Map, n *core.NextLevel, seed int64) (l1, error) {
		ic, err := bbr.NewICache(fm, n)
		if err != nil {
			return nil, err
		}
		in, err := digestInjector(seed)
		ic.AttachInjector(in)
		return fetchOnly{ic}, err
	}},
}

// digestInjector is the runtime fault layer of the injected cases.
func digestInjector(seed int64) (*inject.Injector, error) {
	return inject.New(l1Words, 400, inject.Params{Seed: seed, Intensity: 50})
}

// dataOnly serves FFW's fetches as reads: FFW is a data cache only.
type dataOnly struct{ *ffw.Cache }

func newDataOnly(fm *faultmap.Map, n *core.NextLevel, o ffw.Options) (l1, error) {
	c, err := ffw.New(fm, n, o)
	return dataOnly{c}, err
}

func (d dataOnly) Fetch(addr uint64) core.AccessOutcome { return d.Read(addr) }

// trackedFFW drives FFW's data path: reads through ReadWord, summing the
// values they return, and writes through WriteWord.
type trackedFFW struct {
	*ffw.Cache
	sum uint64
}

func (t *trackedFFW) Read(addr uint64) core.AccessOutcome {
	out, v := t.ReadWord(addr)
	t.sum += uint64(v)
	return out
}

func (t *trackedFFW) Fetch(addr uint64) core.AccessOutcome { return t.Read(addr) }

func (t *trackedFFW) Write(addr uint64) core.AccessOutcome {
	return t.WriteWord(addr, uint32(addr*0x9E3779B1)^uint32(t.sum))
}

// ValueSum is the sum of every value read.
func (t *trackedFFW) ValueSum() uint64 { return t.sum }

// fetchOnly sends every access of the stream to the BBR instruction
// cache's Fetch.
type fetchOnly struct{ *bbr.ICache }

func (f fetchOnly) Read(addr uint64) core.AccessOutcome  { return f.Fetch(addr) }
func (f fetchOnly) Write(addr uint64) core.AccessOutcome { return f.Fetch(addr) }

// counterLine drives a fixed 200k-access read/fetch/write stream
// through c and prints everything the access path counts: hits, the
// latency sum, the next level's traffic and the scheme's own Stats(),
// plus FaultStats(), DisabledFrames() and ValueSum() where c has them.
func counterLine(c l1, n *core.NextLevel) string {
	rng := rand.New(rand.NewSource(42))
	var hits, latency uint64
	for i := 0; i < 200_000; i++ {
		// 80% of accesses reuse a 16 KB hot region; the rest roam 256 KB.
		block := rng.Intn(512)
		if rng.Intn(5) == 0 {
			block = rng.Intn(8192)
		}
		addr := uint64(block*32 + rng.Intn(8)*4)
		var out core.AccessOutcome
		switch op := rng.Intn(10); {
		case op < 6:
			out = c.Read(addr)
		case op < 8:
			out = c.Fetch(addr)
		default:
			out = c.Write(addr)
		}
		if out.Hit {
			hits++
		}
		latency += uint64(out.Latency)
	}
	v := reflect.ValueOf(c)
	stats := v.MethodByName("Stats").Call(nil)[0].Interface()
	line := fmt.Sprintf("hits=%d latency=%d demand=%d writes=%d stats=%+v",
		hits, latency, n.DemandReads(), n.WordWrites(), stats)
	for _, name := range []string{"FaultStats", "DisabledFrames", "ValueSum"} {
		if m := v.MethodByName(name); m.IsValid() {
			line += fmt.Sprintf(" %s=%+v", name, m.Call(nil)[0].Interface())
		}
	}
	return line
}

// TestSchemeCounterDigests pins every L1 construction's counters on
// Pfail 1e-3 and 1e-2 maps: the simulator's golden file pins
// cpu.Result, which does not see the schemes' own statistics.
func TestSchemeCounterDigests(t *testing.T) {
	var got []byte
	for _, cc := range counterCases {
		for _, pfail := range []float64{1e-3, 1e-2} {
			for seed := int64(1); seed <= 3; seed++ {
				gen := faultmap.Generate
				if cc.secded {
					gen = faultmap.GenerateSECDED
				}
				fm := gen(l1Words, pfail, rand.New(rand.NewSource(seed)))
				n := core.NewNextLevel(100)
				c, err := cc.build(fm, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				got = fmt.Appendf(got, "%s/pfail%g/seed%d\t%s\n", cc.name, pfail, seed, counterLine(c, n))
			}
		}
	}
	golden.Check(t, "testdata/counters.golden", got)
}
