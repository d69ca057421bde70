package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bbr"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/program"
	"repro/internal/schemes"
	"repro/internal/sim"
	"repro/internal/workload"
)

// l1Words is the 32 KB L1's word count, as every scheme is built.
const l1Words = 32 * 1024 / 4

// errYield marks a rebuilt run whose scheme cannot cover its fault map;
// the real run must then fail with sim.ErrYield.
var errYield = errors.New("scheme cannot cover the fault map")

// runInputs pins one trace-driven run as the traced mode rebuilds it:
// the fault maps are drawn by the caller (independent draws for the
// figure grid, nested per-die maps for die sweeps).
type runInputs struct {
	key      string // sim.SpecHash of the run
	scheme   sim.Scheme
	bench    string
	op       dvfs.OperatingPoint
	workSeed int64
	n        uint64
	cfg      cpu.Config
	fmI, fmD *faultmap.Map
}

// rig is one run's hardware and instruction stream, built from the
// layers' public constructors the way sim builds it.
type rig struct {
	prof    workload.Profile
	prog    *program.Program
	layout  program.Layout
	l2      *cache.Cache
	next    *core.NextLevel
	ic      core.InstrCache
	dc      core.DataCache
	stream  *workload.Stream
	memLat  int
	wrapLow func(core.Lower) core.Lower
}

// l2Memory is the benchmark's copy of core's default backend: the
// private 512 KB write-back L2 over a fixed-latency memory. Building it
// here lets the traced mode observe the seam below the write buffer
// (core.NewNextLevelOver) while simulating exactly what NewNextLevel
// simulates.
type l2Memory struct {
	l2         *cache.Cache
	memLatency int
}

func (m *l2Memory) ReadBlock(addr uint64) (int, bool) {
	res := m.l2.Access(addr, false)
	latency := m.l2.Config().HitLatency
	if !res.Hit {
		latency += m.memLatency
	}
	return latency, res.Hit
}

func (m *l2Memory) WriteBlock(block uint64, _ bool) {
	m.l2.Access(block*cache.BlockBytes, true)
}

// nullLower answers every read as an L2 hit and drops writes: replays
// of the layers above it then time those layers alone.
type nullLower struct{}

func (nullLower) ReadBlock(uint64) (int, bool) { return cache.L2Config().HitLatency, true }
func (nullLower) WriteBlock(uint64, bool)      {}

// drawMaps draws the independent per-run maps sim.Run draws.
func drawMaps(tr *tracer, pfailBit float64, mapSeed int64) (fmI, fmD *faultmap.Map) {
	tr.do("faultmap.generate", func() { fmI = drawMap(pfailBit, mapSeed*2+11) })
	tr.do("faultmap.generate", func() { fmD = drawMap(pfailBit, mapSeed*2+12) })
	return fmI, fmD
}

func drawMap(pfailBit float64, seed int64) *faultmap.Map {
	if pfailBit <= 0 {
		return faultmap.New(l1Words)
	}
	return faultmap.Generate(l1Words, pfailBit, rand.New(rand.NewSource(seed)))
}

// buildRig assembles a run from public constructors, one span per
// call. wrapLow, when set, decorates the backend below the write
// buffer.
func buildRig(tr *tracer, in runInputs, wrapLow func(core.Lower) core.Lower) (*rig, error) {
	prof, err := workload.ByName(in.bench)
	if err != nil {
		return nil, err
	}
	r := &rig{prof: prof, memLat: core.MemLatencyCycles(in.op.FreqMHz), wrapLow: wrapLow}
	tr.do("core.new_next_level", func() { r.next = r.newNextLevel() })

	if in.scheme == sim.FFWBBR {
		id := tr.begin("workload.build_program", "")
		r.prog, err = workload.BuildProgram(prof, in.workSeed, func(p *program.Program) (t *program.Program, terr error) {
			tr.do("bbr.transform", func() { t, _, terr = bbr.Transform(p, bbr.DefaultTransformConfig()) })
			return t, terr
		})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		var pl *bbr.Placement
		tr.do("bbr.link", func() { pl, err = bbr.Link(r.prog, in.fmI, 0) })
		if err != nil {
			if errors.Is(err, bbr.ErrUnplaceable) {
				return nil, fmt.Errorf("%w: %v", errYield, err)
			}
			return nil, err
		}
		r.layout = pl
	} else {
		tr.do("workload.build_program", func() { r.prog, err = workload.BuildProgram(prof, in.workSeed, nil) })
		if err != nil {
			return nil, err
		}
		r.layout = program.NewSequentialLayout(r.prog, 0)
	}

	if r.ic, r.dc, err = newSchemeCaches(tr, in.scheme, in.op, in.fmI, in.fmD, r.next); err != nil {
		return nil, err
	}
	tr.do("workload.new_stream", func() { r.stream = workload.NewStream(prof, r.prog, r.layout, in.workSeed) })
	return r, nil
}

func (r *rig) newNextLevel() *core.NextLevel {
	r.l2 = cache.MustNew(cache.L2Config())
	var low core.Lower = &l2Memory{l2: r.l2, memLatency: r.memLat}
	if r.wrapLow != nil {
		low = r.wrapLow(low)
	}
	return core.NewNextLevelOver(low)
}

// ctorSpans names the spans of a scheme's I- and D-cache constructors
// by the layer that owns them.
func ctorSpans(s sim.Scheme) [2]string {
	if s == sim.FFWBBR {
		return [2]string{"bbr.new_icache", "ffw.new"}
	}
	return [2]string{"schemes.new", "schemes.new"}
}

// schemeL1 is a baseline scheme's cache, which serves either side.
type schemeL1 interface {
	core.InstrCache
	core.DataCache
}

// newSchemeCaches builds a scheme's two L1s over next, as sim does for
// every scheme the workloads run.
func newSchemeCaches(tr *tracer, s sim.Scheme, op dvfs.OperatingPoint, fmI, fmD *faultmap.Map, next *core.NextLevel) (ic core.InstrCache, dc core.DataCache, err error) {
	names := ctorSpans(s)
	// Every baseline scheme builds both L1s with one constructor.
	pair := func(mk func(*faultmap.Map) (schemeL1, error)) {
		var a, b schemeL1
		tr.do(names[0], func() { a, err = mk(fmI) })
		if err != nil {
			return
		}
		tr.do(names[1], func() { b, err = mk(fmD) })
		ic, dc = a, b
	}
	switch s {
	case sim.DefectFree:
		pair(func(*faultmap.Map) (schemeL1, error) { return schemes.NewDefectFree(next), nil })
	case sim.Conventional:
		if op.PfailBit > 0 {
			return nil, nil, fmt.Errorf("%w: conventional cache below its Vccmin", errYield)
		}
		pair(func(*faultmap.Map) (schemeL1, error) { return schemes.NewConventional(next), nil })
	case sim.EightT:
		pair(func(*faultmap.Map) (schemeL1, error) { return schemes.New8T(next), nil })
	case sim.SimpleWdis:
		pair(func(fm *faultmap.Map) (schemeL1, error) { return schemes.NewSimpleWdis(fm, next) })
	case sim.WilkersonPlus:
		pair(func(fm *faultmap.Map) (schemeL1, error) { return schemes.NewWilkersonPlus(fm, next) })
	case sim.FBAPlus:
		pair(func(fm *faultmap.Map) (schemeL1, error) { return schemes.NewFBA(fm, next, 1024) })
	case sim.IDCPlus:
		pair(func(fm *faultmap.Map) (schemeL1, error) { return schemes.NewIDC(fm, next, 1024) })
	case sim.FFWBBR:
		var bic *bbr.ICache
		tr.do(names[0], func() { bic, err = bbr.NewICache(fmI, next) })
		if err != nil {
			return nil, nil, err
		}
		var fdc *ffw.Cache
		tr.do(names[1], func() { fdc, err = ffw.New(fmD, next, ffw.Options{}) })
		if err != nil {
			return nil, nil, err
		}
		ic, dc = bic, fdc
	default:
		return nil, nil, fmt.Errorf("traced runs do not rebuild scheme %q", s)
	}
	return ic, dc, err
}

// slug is the scheme's name in per-layer metric names.
func slug(s sim.Scheme) string {
	switch s {
	case sim.DefectFree:
		return "defect-free"
	case sim.Conventional:
		return "conventional"
	case sim.EightT:
		return "8t"
	case sim.SimpleWdis:
		return "simple-wdis"
	case sim.WilkersonPlus:
		return "wilkerson-plus"
	case sim.FBAPlus:
		return "fba-plus"
	case sim.IDCPlus:
		return "idc-plus"
	default:
		return string(s)
	}
}

// seqLog records the call sequence at each seam of one run: L1 fetches,
// L1 data accesses, write-buffer calls and backend calls, so each
// layer can be replayed alone against fresh instances under one timer.
type seqLog struct {
	fetch []uint64
	data  []uint64 // addr<<1 | write
	nl    []uint64 // addr<<1 | WriteWord (else ReadBlock)
	low   []uint64 // addr<<2 | write<<1 | forRead
}

type recIC struct {
	core.InstrCache
	log *seqLog
}

func (r recIC) Fetch(a uint64) core.AccessOutcome {
	r.log.fetch = append(r.log.fetch, a)
	return r.InstrCache.Fetch(a)
}

type recDC struct {
	core.DataCache
	log *seqLog
}

func (r recDC) Read(a uint64) core.AccessOutcome {
	r.log.data = append(r.log.data, a<<1)
	return r.DataCache.Read(a)
}

// Write logs the write-buffer call every scheme's write-through store
// makes before the store itself runs.
func (r recDC) Write(a uint64) core.AccessOutcome {
	r.log.data = append(r.log.data, a<<1|1)
	r.log.nl = append(r.log.nl, a<<1|1)
	return r.DataCache.Write(a)
}

type recLower struct {
	inner core.Lower
	log   *seqLog
}

func (r recLower) ReadBlock(a uint64) (int, bool) {
	r.log.nl = append(r.log.nl, a<<1)
	r.log.low = append(r.log.low, a<<2)
	return r.inner.ReadBlock(a)
}

func (r recLower) WriteBlock(b uint64, forRead bool) {
	e := b<<2 | 2
	if forRead {
		e |= 1
	}
	r.log.low = append(r.log.low, e)
	r.inner.WriteBlock(b, forRead)
}

// runAcc accumulates one workload's trace-driven per-layer totals.
type runAcc struct {
	runs, yields        int
	runNS, refNS        int64
	tracedNS            int64
	instrs, executed    uint64
	streamNS            int64
	l1NS                map[string]int64 // metric name (without _ns) -> replay ns
	l1N                 map[string]int64
	nlReadNS, nlWriteNS int64
	nlReads, nlWrites   int64
	l2NS, l2N           int64
	l2Reads, l2Hits     uint64
	demandReads         uint64
	wordWrites, drains  uint64
	cpuSelfNS           int64
	links, linkFails    int
}

func newRunAcc() *runAcc { return &runAcc{l1NS: map[string]int64{}, l1N: map[string]int64{}} }

// setupSpans are the spans of run setup: every constructor call that
// precedes the instruction loop.
var setupSpans = map[string]bool{
	"faultmap.generate": true, "faultmap.map_at": true, "faultmap.new_series": true,
	"workload.build_program": true, "bbr.transform": true, "bbr.link": true,
	"bbr.new_icache": true, "ffw.new": true, "schemes.new": true, "inject.new": true,
	"core.new_next_level": true, "workload.new_stream": true,
}

// traceRun runs one trace-driven run three ways — the real sim path
// (ref, timed untraced), the rebuilt rig under spans, and the rebuilt
// rig with recording seams — checks that all three agree field for
// field, then replays each seam's sequence alone to split the
// instruction loop's time by layer.
func traceRun(ctx context.Context, tr *tracer, acc *runAcc, in runInputs, draw func(*tracer) (*faultmap.Map, *faultmap.Map),
	ref func() (cpu.Result, error), timedRef bool) error {

	t := time.Now()
	want, wantErr := ref()
	if timedRef {
		acc.refNS += int64(time.Since(t))
	}

	root := tr.begin("run", in.key)
	start := time.Now()
	traced := func() { acc.tracedNS += int64(time.Since(start)) }
	in.fmI, in.fmD = draw(tr)
	r, err := buildRig(tr, in, nil)
	if in.scheme == sim.FFWBBR {
		acc.links++
	}
	if errors.Is(err, errYield) {
		tr.end(root)
		traced()
		acc.yields++
		if in.scheme == sim.FFWBBR {
			acc.linkFails++
		}
		if !errors.Is(wantErr, sim.ErrYield) {
			return fmt.Errorf("run %s: rebuilt run fails yield, sim.Run gives %v", in.key, wantErr)
		}
		return nil
	}
	if err != nil {
		tr.end(root)
		return fmt.Errorf("run %s: %w", in.key, err)
	}
	runID := tr.begin("cpu.run", "")
	t = time.Now()
	got, err := cpu.RunContext(ctx, in.cfg, r.stream, r.ic, r.dc, r.next, in.n)
	runNS := int64(time.Since(t))
	tr.end(runID)
	tr.end(root)
	traced()
	if err != nil {
		return err
	}
	if wantErr != nil || got != want {
		return fmt.Errorf("run %s (%s/%s@%dmV): rebuilt result %+v differs from sim's %+v (err %v)",
			in.key, in.scheme, in.bench, in.op.VoltageMV, got, want, wantErr)
	}
	acc.runs++
	acc.runNS += runNS
	acc.instrs += got.Instructions
	acc.executed += got.Executed

	// Recording pass: same rig, seams logged.
	log := &seqLog{}
	in.fmI, in.fmD = in.fmI.Clone(), in.fmD.Clone()
	rec, err := buildRig(nil, in, func(l core.Lower) core.Lower { return recLower{inner: l, log: log} })
	if err != nil {
		return err
	}
	got2, err := cpu.RunContext(ctx, in.cfg, rec.stream, recIC{rec.ic, log}, recDC{rec.dc, log}, rec.next, in.n)
	if err != nil {
		return err
	}
	if got2 != want {
		return fmt.Errorf("run %s: recorded result differs from sim's", in.key)
	}
	st := rec.l2.Stats()
	acc.l2Reads += st.Reads
	acc.l2Hits += st.ReadHits
	acc.demandReads += rec.next.DemandReads()
	acc.wordWrites += rec.next.WordWrites()
	acc.drains += rec.next.BlockDrains()

	rp, err := replay(in, r, log, got.Executed)
	if err != nil {
		return err
	}
	icName, dcRead, dcWrite := "schemes."+slug(in.scheme)+".fetch", "schemes."+slug(in.scheme)+".read", "schemes."+slug(in.scheme)+".write"
	icLayer, dcLayer := "schemes."+slug(in.scheme)+".l1i", "schemes."+slug(in.scheme)+".l1d"
	if in.scheme == sim.FFWBBR {
		icName, dcRead, dcWrite = "bbr.fetch", "ffw.read", "ffw.write"
		icLayer, dcLayer = "bbr.fetch", "ffw.access"
	}
	acc.l1NS[icName] += rp.ic
	acc.l1N[icName] += int64(len(log.fetch))
	acc.l1NS[dcRead] += rp.dcRead
	acc.l1N[dcRead] += int64(rp.reads)
	acc.l1NS[dcWrite] += rp.dc - rp.dcRead
	acc.l1N[dcWrite] += int64(rp.writes)
	acc.nlReadNS += rp.nlRead
	acc.nlWriteNS += rp.nl - rp.nlRead
	acc.nlReads += int64(rp.nlReads)
	acc.nlWrites += int64(len(log.nl) - rp.nlReads)
	acc.l2NS += rp.l2
	acc.l2N += int64(len(log.low))
	acc.streamNS += rp.stream

	// The L1 replays ran over a null backend, so they include the write
	// buffer's work on their behalf, which the write-buffer replay
	// measures on its own: charge it once, to core.
	l1 := rp.ic + rp.dc - rp.nl
	icSelf := int64(float64(l1) * ratio(float64(rp.ic), float64(rp.ic+rp.dc)))
	tr.virtual(runID, "workload.stream", time.Duration(rp.stream))
	tr.virtual(runID, icLayer, time.Duration(icSelf))
	tr.virtual(runID, dcLayer, time.Duration(l1-icSelf))
	tr.virtual(runID, "core.next_level", time.Duration(rp.nl))
	tr.virtual(runID, "cache.l2", time.Duration(rp.l2))
	acc.cpuSelfNS += runNS - rp.stream - l1 - rp.nl - rp.l2
	return nil
}

// replayTimes are the durations of each seam's sequence replayed alone.
type replayTimes struct {
	stream, ic, dc, dcRead, nl, nlRead, l2 int64
	reads, writes, nlReads                 int
}

// replayRounds is how often each replay runs, on fresh instances; the
// fastest round is kept, as the one the host disturbed least.
const replayRounds = 2

func fastest(round func() (int64, error)) (int64, error) {
	var best int64 = -1
	for i := 0; i < replayRounds; i++ {
		d, err := round()
		if err != nil {
			return 0, err
		}
		if best < 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// replay times each layer on its own: the stream's Next for the run's
// executed count, the I- and D-cache sequences over a null backend
// (reads alone too, to split reads from writes), the write buffer's
// sequence over a null backend (ReadBlocks alone too) and the backend
// sequence against a fresh L2.
func replay(in runInputs, built *rig, log *seqLog, executed uint64) (rt replayTimes, err error) {
	fresh := func() (core.InstrCache, core.DataCache, error) {
		next := core.NewNextLevelOver(nullLower{})
		return newSchemeCaches(nil, in.scheme, in.op, in.fmI.Clone(), in.fmD.Clone(), next)
	}
	data := func(writes bool) func() (int64, error) {
		return func() (int64, error) {
			_, dc, err := fresh()
			if err != nil {
				return 0, err
			}
			return replayData(dc, log.data, writes), nil
		}
	}
	nl := func(writes bool) func() (int64, error) {
		return func() (int64, error) {
			next := core.NewNextLevelOver(nullLower{})
			t := time.Now()
			for _, e := range log.nl {
				switch {
				case e&1 == 0:
					next.ReadBlock(e >> 1)
				case writes:
					next.WriteWord(e >> 1)
				}
			}
			return int64(time.Since(t)), nil
		}
	}
	rounds := []struct {
		dst   *int64
		round func() (int64, error)
	}{
		{&rt.stream, func() (int64, error) {
			stream := workload.NewStream(built.prof, built.prog, built.layout, in.workSeed)
			t := time.Now()
			for i := uint64(0); i < executed; i++ {
				stream.Next()
			}
			return int64(time.Since(t)), nil
		}},
		{&rt.ic, func() (int64, error) {
			ic, _, err := fresh()
			if err != nil {
				return 0, err
			}
			return replayFetch(ic, log.fetch), nil
		}},
		{&rt.dc, data(true)},
		{&rt.dcRead, data(false)},
		{&rt.nl, nl(true)},
		{&rt.nlRead, nl(false)},
		{&rt.l2, func() (int64, error) {
			low := &l2Memory{l2: cache.MustNew(cache.L2Config()), memLatency: built.memLat}
			t := time.Now()
			for _, e := range log.low {
				if e&2 == 0 {
					low.ReadBlock(e >> 2)
				} else {
					low.WriteBlock(e>>2, e&1 == 1)
				}
			}
			return int64(time.Since(t)), nil
		}},
	}
	for _, r := range rounds {
		if *r.dst, err = fastest(r.round); err != nil {
			return rt, err
		}
	}
	rt.reads, rt.writes = countData(log.data)
	for _, e := range log.nl {
		if e&1 == 0 {
			rt.nlReads++
		}
	}
	return rt, nil
}

// replayFetch times a fetch sequence against ic.
func replayFetch(ic core.InstrCache, seq []uint64) int64 {
	t := time.Now()
	for _, a := range seq {
		ic.Fetch(a)
	}
	return int64(time.Since(t))
}

// replayData times a data-cache sequence (seqLog.data entries) against
// dc; with writes false only its reads are replayed.
func replayData(dc core.DataCache, seq []uint64, writes bool) int64 {
	t := time.Now()
	for _, e := range seq {
		switch {
		case e&1 == 0:
			dc.Read(e >> 1)
		case writes:
			dc.Write(e >> 1)
		}
	}
	return int64(time.Since(t))
}

// countData counts the reads and writes of a data-cache sequence.
func countData(seq []uint64) (reads, writes int) {
	for _, e := range seq {
		writes += int(e & 1)
	}
	return len(seq) - writes, writes
}

// setupMetrics reports run setup from the spans: every constructor
// call before an instruction loop, per rig built, and its share of
// setup plus loop time.
func setupMetrics(spans []span, lm layerMetrics, rigs int, loopNS int64) {
	self := selfByName(spans)
	count := countByName(spans)
	var setup int64
	for name, ns := range self {
		if setupSpans[name] {
			setup += ns
		}
	}
	perCall := func(name string) float64 { return ratio(float64(self[name]), float64(count[name])) / 1e3 }
	lm["sim.rig_build_ms"] = ratio(float64(setup), float64(rigs)) / 1e6
	lm["sim.setup_share"] = ratio(float64(setup), float64(setup+loopNS))
	draws := count["faultmap.generate"] + count["faultmap.map_at"] + count["faultmap.new_series"]
	lm["faultmap.draws"] = float64(draws)
	lm["faultmap.draw_us"] = ratio(float64(self["faultmap.generate"]+self["faultmap.map_at"]+self["faultmap.new_series"]), float64(draws)) / 1e3
	lm["workload.build_program_us"] = perCall("workload.build_program")
	lm["bbr.transform_us"] = perCall("bbr.transform")
	lm["bbr.link_us"] = perCall("bbr.link")
	lm["core.new_next_level_us"] = perCall("core.new_next_level")
}

// metrics turns the totals into per-layer metrics.
func (a *runAcc) metrics(spans []span, lm layerMetrics) {
	setupMetrics(spans, lm, a.runs+a.yields, a.runNS)
	lm["workload.stream_next_ns"] = ratio(float64(a.streamNS), float64(a.executed))
	lm["workload.instrs_executed"] = float64(a.executed)
	lm["bbr.links"] = float64(a.links)
	lm["bbr.yield_fail_frac"] = ratio(float64(a.linkFails), float64(a.links))
	for name, ns := range a.l1NS {
		lm[name+"_ns"] = ratio(float64(ns), float64(a.l1N[name]))
	}
	lm["core.read_block_ns"] = ratio(float64(a.nlReadNS), float64(a.nlReads))
	lm["core.write_word_ns"] = ratio(float64(a.nlWriteNS), float64(a.nlWrites))
	lm["core.wb_coalesce_frac"] = 1 - ratio(float64(a.drains), float64(a.wordWrites))
	lm["core.demand_reads_per_kinstr"] = 1000 * ratio(float64(a.demandReads), float64(a.instrs))
	lm["cache.l2_access_ns"] = ratio(float64(a.l2NS), float64(a.l2N))
	lm["cache.l2_hit_frac"] = ratio(float64(a.l2Hits), float64(a.l2Reads))
	lm["cpu.loop_self_ns_per_instr"] = ratio(float64(a.cpuSelfNS), float64(a.executed))
	lm["trace.overhead_frac"] = ratio(float64(a.tracedNS), float64(a.refNS)) - 1
}
