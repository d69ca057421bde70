package sim

import (
	"fmt"

	"repro/internal/cacti"
	"repro/internal/core"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/schemes"
)

// Scheme identifies one evaluated cache configuration (both L1s).
type Scheme string

// The evaluation set. FFWBBR is the paper's proposal: FFW on the data
// cache combined with BBR on the instruction cache.
const (
	DefectFree    Scheme = "DefectFree"
	Conventional  Scheme = "Conventional"
	EightT        Scheme = "8T"
	SimpleWdis    Scheme = "Simple-wdis"
	WilkersonPlus Scheme = "Wilkerson+"
	FBA64         Scheme = "FBA"
	FBAPlus       Scheme = "FBA+"
	IDC64         Scheme = "IDC"
	IDCPlus       Scheme = "IDC+"
	FFWBBR        Scheme = "FFW+BBR"
	// SECDEDScheme is the extension baseline: per-word (39,32) ECC — the
	// related-work class the paper argues is overwhelmed by multi-bit
	// errors at deep voltage. Not part of the paper's evaluated set.
	SECDEDScheme Scheme = "SECDED"
	// BitFixScheme is Wilkerson's second mechanism [4], adapted to word
	// granularity: a quarter of the cache repairs the rest. Extension
	// baseline (the paper names it in §III but does not evaluate it).
	BitFixScheme Scheme = "Bit-fix"
	// WilkersonPlain is word-disable without the simple-wdis supplement:
	// it refuses (ErrYield) any fault map with a dead logical slot. The
	// paper's Fig. 10 note — "Wilkerson's word disable cannot achieve
	// 99.9% chip yield below 480mV" — shows up as yield failures here.
	WilkersonPlain Scheme = "Wilkerson"
)

// l1Builder constructs a scheme's instruction and data caches over the
// run's fault maps and next level.
type l1Builder func(spec RunSpec, fmI, fmD *faultmap.Map, next *core.NextLevel) (core.InstrCache, core.DataCache, error)

// schemeRow is everything the simulator knows about one scheme.
type schemeRow struct {
	name Scheme
	// eval marks the schemes of Figures 10–12.
	eval bool
	// bbr marks schemes whose program is BBR-transformed and relinked
	// around the I-side fault map; every other scheme runs the
	// conventional dense layout.
	bbr bool
	// dieSweep marks schemes die sweeps support.
	dieSweep bool
	// inject marks schemes with the detection and recovery machinery
	// runtime fault injection needs.
	inject bool
	// iDesign and dDesign are the cacti organizations of the two L1s;
	// the energy model charges their mean leakage.
	iDesign, dDesign cacti.Design
	build            l1Builder
}

// schemeTable is the one description of every scheme, in AllSchemes
// order: adding a scheme is adding a row. Per the paper's methodology,
// FBA⁺ and IDC⁺ are *granted* the leakage of their realistic 64-entry
// configurations ("we give an advantage to FBA+ and IDC+ in our energy
// calculation by ignoring the energy overhead of their 1024 entries").
var schemeTable = []schemeRow{
	{name: DefectFree, dieSweep: true, iDesign: cacti.Baseline(), dDesign: cacti.Baseline(), build: faultless(schemes.NewDefectFree)},
	{name: Conventional, dieSweep: true, iDesign: cacti.Baseline(), dDesign: cacti.Baseline(), build: conventional},
	{name: EightT, eval: true, dieSweep: true, iDesign: cacti.EightT(), dDesign: cacti.EightT(), build: faultless(schemes.New8T)},
	{name: SimpleWdis, eval: true, dieSweep: true, iDesign: cacti.SimpleWdis(), dDesign: cacti.SimpleWdis(), build: mirrored(schemes.NewSimpleWdis)},
	{name: WilkersonPlus, eval: true, dieSweep: true, iDesign: cacti.Wilkerson(), dDesign: cacti.Wilkerson(), build: mirrored(schemes.NewWilkersonPlus)},
	{name: FBA64, dieSweep: true, iDesign: cacti.FBA(64), dDesign: cacti.FBA(64), build: entries(schemes.NewFBA, 64)},
	{name: FBAPlus, eval: true, dieSweep: true, iDesign: cacti.FBA(64), dDesign: cacti.FBA(64), build: entries(schemes.NewFBA, 1024)},
	{name: IDC64, dieSweep: true, iDesign: cacti.IDC(64), dDesign: cacti.IDC(64), build: entries(schemes.NewIDC, 64)},
	{name: IDCPlus, eval: true, dieSweep: true, iDesign: cacti.IDC(64), dDesign: cacti.IDC(64), build: entries(schemes.NewIDC, 1024)},
	{name: FFWBBR, eval: true, bbr: true, dieSweep: true, inject: true, iDesign: cacti.BBRInstr(), dDesign: cacti.FFWData(), build: ffwBBR},
	// SECDED sees second-order (>=2-bit) failures, which need a different
	// nested threshold than the per-word minimum a faultmap.Series
	// tracks, so die sweeps do not support it.
	{name: SECDEDScheme, iDesign: cacti.SECDED(), dDesign: cacti.SECDED(), build: secded},
	{name: BitFixScheme, dieSweep: true, iDesign: cacti.BitFix(), dDesign: cacti.BitFix(), build: mirrored(schemes.NewBitFix)},
	{name: WilkersonPlain, dieSweep: true, iDesign: cacti.Wilkerson(), dDesign: cacti.Wilkerson(), build: wilkersonPlain},
}

// AllSchemes returns every constructible scheme, including the
// extension baselines.
func AllSchemes() []Scheme {
	out := make([]Scheme, len(schemeTable))
	for i, r := range schemeTable {
		out[i] = r.name
	}
	return out
}

// EvalSchemes returns the schemes of Figures 10–12, in the paper's
// presentation order.
func EvalSchemes() []Scheme {
	var out []Scheme
	for _, r := range schemeTable {
		if r.eval {
			out = append(out, r.name)
		}
	}
	return out
}

// rowFor returns the scheme's table row.
func rowFor(s Scheme) (*schemeRow, error) {
	for i := range schemeTable {
		if schemeTable[i].name == s {
			return &schemeTable[i], nil
		}
	}
	return nil, fmt.Errorf("sim: unknown scheme %q (known: %v)", s, AllSchemes())
}

// CheckScheme rejects a scheme the simulator cannot build, and, when
// dieSweep is set, one die sweeps do not support — so callers taking a
// scheme from outside can refuse it before scheduling any work.
func CheckScheme(s Scheme, dieSweep bool) error {
	row, err := rowFor(s)
	if err == nil && dieSweep && !row.dieSweep {
		err = fmt.Errorf("sim: %s is not supported in die sweeps", s)
	}
	return err
}

// checkInject rejects runtime fault injection on a scheme without
// detection and recovery machinery.
func checkInject(s Scheme) error {
	row, err := rowFor(s)
	if err == nil && !row.inject {
		err = fmt.Errorf("sim: scheme %q does not support runtime fault injection", s)
	}
	return err
}

// L1StaticFactor returns the scheme's combined L1 static-power multiplier
// from the cacti model (both caches averaged), used by the energy model;
// an unknown scheme gets the baseline's 1.
func L1StaticFactor(s Scheme) float64 {
	row, err := rowFor(s)
	if err != nil {
		return 1
	}
	t := cacti.Default45nm()
	return (t.RelativeLeakage(row.iDesign) + t.RelativeLeakage(row.dDesign)) / 2
}

// l1Cache is a scheme cache usable on either side.
type l1Cache interface {
	core.InstrCache
	core.DataCache
}

// faultless builds both L1s as arrays that never see a fault map.
func faultless[C l1Cache](mk func(*core.NextLevel) C) l1Builder {
	return func(_ RunSpec, _, _ *faultmap.Map, next *core.NextLevel) (core.InstrCache, core.DataCache, error) {
		return mk(next), mk(next), nil
	}
}

// mirrored builds both L1s with one per-map constructor.
func mirrored[C l1Cache](mk func(*faultmap.Map, *core.NextLevel) (C, error)) l1Builder {
	return func(_ RunSpec, fmI, fmD *faultmap.Map, next *core.NextLevel) (core.InstrCache, core.DataCache, error) {
		ic, err := mk(fmI, next)
		if err != nil {
			return nil, nil, err
		}
		dc, err := mk(fmD, next)
		return ic, dc, err
	}
}

// entries is mirrored for the schemes sized by a side-structure entry
// count (FBA, IDC).
func entries[C l1Cache](mk func(*faultmap.Map, *core.NextLevel, int) (C, error), n int) l1Builder {
	return mirrored(func(fm *faultmap.Map, next *core.NextLevel) (C, error) { return mk(fm, next, n) })
}

func conventional(spec RunSpec, _, _ *faultmap.Map, next *core.NextLevel) (core.InstrCache, core.DataCache, error) {
	if spec.Op.PfailBit > 0 {
		return nil, nil, fmt.Errorf("%w: conventional cache below its 760mV Vccmin", ErrYield)
	}
	return schemes.NewConventional(next), schemes.NewConventional(next), nil
}

func wilkersonPlain(spec RunSpec, fmI, fmD *faultmap.Map, next *core.NextLevel) (core.InstrCache, core.DataCache, error) {
	if !schemes.Coverable(fmI) || !schemes.Coverable(fmD) {
		return nil, nil, fmt.Errorf("%w: plain word-disable has a dead logical slot", ErrYield)
	}
	// On a coverable map the plain scheme behaves exactly like the
	// supplemented one (the supplement never triggers).
	return mirrored(schemes.NewWilkersonPlus)(spec, fmI, fmD, next)
}

func secded(spec RunSpec, _, _ *faultmap.Map, next *core.NextLevel) (core.InstrCache, core.DataCache, error) {
	// ECC sees only the uncorrectable (>=2 failed bits) words; fresh
	// maps are drawn from the same seeds at the multi-bit rate.
	mbI, mbD := drawMaps(faultmap.GenerateSECDED, spec.Op.PfailBit, spec.MapSeed)
	return mirrored(schemes.NewSECDED)(spec, mbI, mbD, next)
}

func ffwBBR(spec RunSpec, fmI, fmD *faultmap.Map, next *core.NextLevel) (core.InstrCache, core.DataCache, error) {
	return newFFWBBR(fmI, fmD, next, ffw.Options{Placement: spec.Placement, Scatter: spec.Scatter}, spec.Inject, spec.Op.VoltageMV)
}
