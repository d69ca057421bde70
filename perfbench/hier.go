package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/bbr"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/event"
	"repro/internal/faultmap"
	"repro/internal/ffw"
	"repro/internal/hier"
	"repro/internal/inject"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/workload"
)

// hier-chaos: multicore FFW+BBR fault-injection campaigns on the
// event-driven hierarchy. Core counts 2–4 on distinct voltage domains
// exercise the event kernel, the coroutine round trip on each L1 miss,
// the banked shared L2 with MSHRs, the injector and the rig rebuild on
// every voltage transition.
var (
	hierCores   = []int{2, 3, 4, 2, 3, 4}
	hierBenches = []string{"qsort", "basicmath", "adpcm", "429.mcf"}
	hierStartMV = []int{440, 480, 400, 520}
)

const (
	hierEpochs      = 4
	hierEpochInstrs = 8_000
	hierIntensity   = 0.5
)

func hierSpecs(seed int64) []sim.HierChaosSpec {
	var specs []sim.HierChaosSpec
	for c, n := range hierCores {
		s := sim.HierChaosSpec{
			Inject: inject.Params{Seed: seed*100 + int64(c), Intensity: hierIntensity},
			Epochs: hierEpochs, EpochInstructions: hierEpochInstrs,
			CPU: cpu.DefaultConfig(), Backoff: dvfs.DefaultBackoffConfig(),
		}
		for i := 0; i < n; i++ {
			s.Cores = append(s.Cores, sim.HierChaosCoreSpec{
				Benchmark: hierBenches[(c+i)%len(hierBenches)],
				DieSeed:   seed*1000 + int64(10*c+i),
				WorkSeed:  seed + int64(i),
				StartMV:   hierStartMV[(c+i)%len(hierStartMV)],
			})
		}
		specs = append(specs, s)
	}
	return specs
}

// hierOutput is the grid's canonical output and its useful
// instructions.
func hierOutput(results []*sim.HierChaosResult) ([]byte, uint64, error) {
	var instrs uint64
	for _, r := range results {
		for _, ep := range r.Epochs {
			for _, c := range ep.Cores {
				instrs += c.Result.Instructions
			}
		}
	}
	b, err := json.Marshal(results)
	return b, instrs, err
}

// runHierGrid runs the campaigns as a closed loop of `clients`
// clients, at most that many campaigns at a time.
func runHierGrid(ctx context.Context, specs []sim.HierChaosSpec, clients int) (iterOut, error) {
	results := make([]*sim.HierChaosResult, len(specs))
	samples := make([]opSample, len(specs))
	errs := make([]error, len(specs))
	closedLoop(len(specs), clients, func(i int) {
		t := time.Now()
		results[i], errs[i] = sim.RunHierChaos(ctx, specs[i])
		samples[i] = opSample{latency: time.Since(t), failed: errs[i] != nil}
	})
	out := iterOut{ops: samples}
	if err := errors.Join(errs...); err != nil {
		return out, err
	}
	var err error
	out.output, out.instrs, err = hierOutput(results)
	return out, err
}

var hierWorkload = benchmark{
	name: "hier-chaos",
	prepare: func(seed int64, _ int) (*iteration, error) {
		specs := hierSpecs(seed)
		for i, s := range specs {
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("campaign %d: %w", i, err)
			}
		}
		return &iteration{
			run:   func(ctx context.Context) (iterOut, error) { return runHierGrid(ctx, specs, concurrency) },
			close: func() {},
		}, nil
	},
	check: func(ctx context.Context, seed int64, out iterOut) error {
		seq, err := runHierGrid(ctx, hierSpecs(seed), 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(seq.output, out.output) {
			return errors.New("campaigns run two at a time differ from the same campaigns run one at a time")
		}
		return nil
	},
	trace: traceHier,
}

// hierAcc accumulates the traced campaigns' per-layer totals.
type hierAcc struct {
	fetchNS, readNS, writeNS float64 // replayed L1 time
	fetchN, readN, writeN    int64
	streamNS                 float64
	executed                 uint64
	events                   uint64
	epochNS                  int64
	links, linkFails         int
	refNS, tracedNS          int64
}

// hierSeg is one voltage segment of one core: the rig its SetRig built
// and the L1 call sequences it served, kept for replay.
type hierSeg struct {
	op         dvfs.OperatingPoint
	fmI, fmD   *faultmap.Map
	injI, injD inject.Params // zero when injection is off
	log        *seqLog
}

// hierCore is one core's live campaign state in the rebuilt campaign.
type hierCore struct {
	prof             workload.Profile
	prog             *program.Program
	layout           program.Layout
	seriesI, seriesD *faultmap.Series
	backoff          *dvfs.Backoff
	salt             int64
	seg              int
	ic               *bbr.ICache
	dc               *ffw.Cache
	prev, totals     inject.Stats
	epochs           []sim.ChaosEpoch
	segs             []*hierSeg
}

// epochMark is where one core's sequences stood when an epoch began.
type epochMark struct {
	seg           *hierSeg
	fetch, data   int
	fetchE, dataE int
	executed      uint64
}

// epochTrace is one traced epoch: its span and each core's slice of
// the recorded sequences.
type epochTrace struct {
	span  int
	cores []epochMark
}

// wrapL1 decorates a core's freshly built L1s; events reads the
// hierarchy's processed-event count.
type wrapL1 func(seg *hierSeg, ic core.InstrCache, dc core.DataCache, events func() uint64) (core.InstrCache, core.DataCache)

// recordL1 logs each segment's L1 call sequences.
func recordL1(seg *hierSeg, ic core.InstrCache, dc core.DataCache, _ func() uint64) (core.InstrCache, core.DataCache) {
	return recIC{ic, seg.log}, recDC{dc, seg.log}
}

// rebuildHierChaos is sim.RunHierChaos rebuilt from public
// constructors, with a span around every call into a layer and its L1
// seams decorated by wrap. It must return the same result.
func rebuildHierChaos(ctx context.Context, tr *tracer, acc *hierAcc, spec sim.HierChaosSpec, wrap wrapL1) (*sim.HierChaosResult, []epochTrace, []*hierCore, error) {
	l2op := dvfs.Nominal()
	if spec.L2MV != 0 {
		var err error
		if l2op, err = dvfs.PointAt(spec.L2MV); err != nil {
			return nil, nil, nil, err
		}
	}
	params := hier.DefaultL2Params(l2op)
	if spec.Banks > 0 {
		params.Banks = spec.Banks
	}
	if spec.MSHRs > 0 {
		params.MSHRs = spec.MSHRs
	}
	var h *hier.Hierarchy
	var err error
	tr.do("hier.new", func() { h, err = hier.New(hier.Config{Cores: len(spec.Cores), L2: params}) })
	if err != nil {
		return nil, nil, nil, err
	}

	states := make([]*hierCore, len(spec.Cores))
	rebuild := func(i int) error {
		st, cs := states[i], spec.Cores[i]
		for {
			op := st.backoff.Current()
			id := tr.begin("hier.set_rig", "")
			err := h.SetRig(i, op, spec.CPU, func(next *core.NextLevel) (core.InstrCache, core.DataCache, *workload.Stream, error) {
				seg := &hierSeg{op: op, log: &seqLog{}}
				var fmI, fmD *faultmap.Map
				tr.do("faultmap.map_at", func() { fmI = st.seriesI.MapAt(op.PfailBit) })
				tr.do("faultmap.map_at", func() { fmD = st.seriesD.MapAt(op.PfailBit) })
				seg.fmI, seg.fmD = fmI.Clone(), fmD.Clone()
				acc.links++
				var pl *bbr.Placement
				var lerr error
				tr.do("bbr.link", func() { pl, lerr = bbr.Link(st.prog, fmI, 0) })
				if lerr != nil {
					if errors.Is(lerr, bbr.ErrUnplaceable) {
						acc.linkFails++
						return nil, nil, nil, fmt.Errorf("%w: %v", errYield, lerr)
					}
					return nil, nil, nil, lerr
				}
				var ic *bbr.ICache
				var ierr error
				tr.do("bbr.new_icache", func() { ic, ierr = bbr.NewICache(fmI, next) })
				if ierr != nil {
					return nil, nil, nil, ierr
				}
				opts := ffw.Options{}
				if spec.Inject.Enabled() {
					base := spec.Inject.Seed + st.salt + int64(st.seg)*7919
					seg.injI, seg.injD = spec.Inject.WithSeed(base*2+21), spec.Inject.WithSeed(base*2+22)
					var injI, injD *inject.Injector
					tr.do("inject.new", func() { injI, ierr = inject.New(l1Words, op.VoltageMV, seg.injI) })
					if ierr != nil {
						return nil, nil, nil, ierr
					}
					tr.do("inject.new", func() { injD, ierr = inject.New(l1Words, op.VoltageMV, seg.injD) })
					if ierr != nil {
						return nil, nil, nil, ierr
					}
					ic.AttachInjector(injI)
					opts.Injector = injD
				}
				var dc *ffw.Cache
				tr.do("ffw.new", func() { dc, ierr = ffw.New(fmD, next, opts) })
				if ierr != nil {
					return nil, nil, nil, ierr
				}
				var stream *workload.Stream
				tr.do("workload.new_stream", func() { stream = workload.NewStream(st.prof, st.prog, pl, cs.WorkSeed) })
				st.ic, st.dc, st.layout = ic, dc, pl
				st.segs = append(st.segs, seg)
				wic, wdc := wrap(seg, ic, dc, h.Events)
				return wic, wdc, stream, nil
			})
			tr.end(id)
			if err == nil {
				st.seg++
				st.prev = inject.Stats{}
				return nil
			}
			if !errors.Is(err, errYield) {
				return err
			}
			if !st.backoff.ForceUp() {
				return fmt.Errorf("core %d die %d uncoverable even at %d mV: %w", i, cs.DieSeed, op.VoltageMV, err)
			}
		}
	}
	for i, cs := range spec.Cores {
		prof, err := workload.ByName(cs.Benchmark)
		if err != nil {
			return nil, nil, nil, err
		}
		backoff, err := dvfs.NewBackoff(spec.Backoff, cs.StartMV)
		if err != nil {
			return nil, nil, nil, err
		}
		st := &hierCore{prof: prof, backoff: backoff, salt: int64(i) * 1_000_003}
		id := tr.begin("workload.build_program", "")
		st.prog, err = workload.BuildProgram(prof, cs.WorkSeed, func(p *program.Program) (t *program.Program, terr error) {
			tr.do("bbr.transform", func() { t, _, terr = bbr.Transform(p, bbr.DefaultTransformConfig()) })
			return t, terr
		})
		tr.end(id)
		if err != nil {
			return nil, nil, nil, err
		}
		tr.do("faultmap.new_series", func() { st.seriesI = faultmap.NewSeries(l1Words, rand.New(rand.NewSource(cs.DieSeed*2+11))) })
		tr.do("faultmap.new_series", func() { st.seriesD = faultmap.NewSeries(l1Words, rand.New(rand.NewSource(cs.DieSeed*2+12))) })
		states[i] = st
		if err := rebuild(i); err != nil {
			return nil, nil, nil, err
		}
	}

	res := &sim.HierChaosResult{Spec: spec}
	var traces []epochTrace
	var prevL2 hier.L2Stats
	for e := 0; e < spec.Epochs; e++ {
		et := epochTrace{}
		for _, st := range states {
			seg := st.segs[len(st.segs)-1]
			et.cores = append(et.cores, epochMark{seg: seg, fetch: len(seg.log.fetch), data: len(seg.log.data)})
		}
		et.span = tr.begin("hier.run_epoch", "")
		t := time.Now()
		results, err := h.RunEpoch(ctx, spec.EpochInstructions)
		acc.epochNS += int64(time.Since(t))
		tr.end(et.span)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := range et.cores {
			m := &et.cores[i]
			m.fetchE, m.dataE, m.executed = len(m.seg.log.fetch), len(m.seg.log.data), results[i].Executed
		}
		traces = append(traces, et)
		l2now := h.L2Stats()
		ep := sim.HierChaosEpoch{Index: e, L2: l2now.Sub(prevL2)}
		prevL2 = l2now
		for i, st := range states {
			op := st.backoff.Current()
			r := results[i]
			acc.executed += r.Executed
			cum := st.ic.FaultStats()
			cum.Add(st.dc.FaultStats())
			delta := cum.Sub(st.prev)
			st.prev = cum
			rate := 1000 * float64(delta.Detected) / float64(r.Instructions)
			action := st.backoff.Observe(rate)
			ep.Cores = append(ep.Cores, sim.HierChaosCoreEpoch{
				Core: i, MV: op.VoltageMV, Result: r, Faults: delta, Rate: rate, Action: action,
			})
			st.totals.Add(delta)
			st.epochs = append(st.epochs, sim.ChaosEpoch{Op: op, Result: r})
			if action != dvfs.Hold && e < spec.Epochs-1 {
				if err := rebuild(i); err != nil {
					return nil, nil, nil, err
				}
			}
		}
		res.Epochs = append(res.Epochs, ep)
	}
	for i, st := range states {
		res.Cores = append(res.Cores, sim.HierChaosCoreSummary{
			Core: i, Benchmark: spec.Cores[i].Benchmark,
			FinalMV: st.backoff.Current().VoltageMV,
			StepUps: st.backoff.StepUps(), StepDowns: st.backoff.StepDowns(),
			Totals: st.totals, Residency: residency(st.epochs),
		})
	}
	res.L2 = h.L2Stats()
	acc.events += h.Events()
	return res, traces, states, nil
}

// residency folds a core's epochs into its voltage histogram, highest
// voltage first, as sim does.
func residency(epochs []sim.ChaosEpoch) []sim.Residency {
	byMV := map[int]*sim.Residency{}
	var total uint64
	for _, ep := range epochs {
		r := byMV[ep.Op.VoltageMV]
		if r == nil {
			r = &sim.Residency{VoltageMV: ep.Op.VoltageMV}
			byMV[ep.Op.VoltageMV] = r
		}
		r.Epochs++
		r.Instructions += ep.Result.Instructions
		total += ep.Result.Instructions
	}
	var out []sim.Residency
	for _, p := range dvfs.OperatingPoints() {
		if r := byMV[p.VoltageMV]; r != nil {
			if total > 0 {
				r.Frac = float64(r.Instructions) / float64(total)
			}
			out = append(out, *r)
		}
	}
	return out
}

// freshL1 rebuilds a segment's two L1s, injectors included, over a
// null backend.
func freshL1(seg *hierSeg) (*bbr.ICache, *ffw.Cache, error) {
	next := core.NewNextLevelOver(nullLower{})
	ic, err := bbr.NewICache(seg.fmI.Clone(), next)
	if err != nil {
		return nil, nil, err
	}
	opts := ffw.Options{}
	if seg.injI.Enabled() {
		injI, err := inject.New(l1Words, seg.op.VoltageMV, seg.injI)
		if err != nil {
			return nil, nil, err
		}
		if opts.Injector, err = inject.New(l1Words, seg.op.VoltageMV, seg.injD); err != nil {
			return nil, nil, err
		}
		ic.AttachInjector(injI)
	}
	dc, err := ffw.New(seg.fmD.Clone(), next, opts)
	return ic, dc, err
}

// replayEpochs replays each core's recorded L1 sequences against fresh
// instances, one epoch slice at a time, and charges each slice to its
// epoch's span; the stream is charged at its replayed cost per Next.
func replayEpochs(tr *tracer, acc *hierAcc, traces []epochTrace, cores []*hierCore, spec sim.HierChaosSpec) error {
	type live struct {
		ic *bbr.ICache
		dc *ffw.Cache
	}
	rigs := map[*hierSeg]live{}
	perNext := make([]float64, len(cores))
	for i, st := range cores {
		perNext[i] = streamCost(st.prof, st.prog, st.layout, spec.Cores[i].WorkSeed)
	}
	for _, et := range traces {
		var fetch, data, stream float64
		for i, m := range et.cores {
			l, ok := rigs[m.seg]
			if !ok {
				ic, dc, err := freshL1(m.seg)
				if err != nil {
					return err
				}
				l = live{ic, dc}
				rigs[m.seg] = l
			}
			f := float64(replayFetch(l.ic, m.seg.log.fetch[m.fetch:m.fetchE]))
			fetch += f
			data += float64(replayData(l.dc, m.seg.log.data[m.data:m.dataE], true))
			stream += float64(m.executed) * perNext[i]
			acc.fetchNS += f
			acc.fetchN += int64(m.fetchE - m.fetch)
		}
		tr.virtual(et.span, "bbr.fetch", time.Duration(fetch))
		tr.virtual(et.span, "ffw.access", time.Duration(data))
		tr.virtual(et.span, "workload.stream", time.Duration(stream))
		acc.streamNS += stream
	}
	// Reads alone, per segment, split the data time into reads and writes.
	for _, st := range cores {
		for _, seg := range st.segs {
			data := func(writes bool) func() (int64, error) {
				return func() (int64, error) {
					_, dc, err := freshL1(seg)
					if err != nil {
						return 0, err
					}
					return replayData(dc, seg.log.data, writes), nil
				}
			}
			both, err := fastest(data(true))
			if err != nil {
				return err
			}
			reads, err := fastest(data(false))
			if err != nil {
				return err
			}
			acc.readNS += float64(reads)
			acc.writeNS += float64(both - reads)
			nr, nw := countData(seg.log.data)
			acc.readN += int64(nr)
			acc.writeN += int64(nw)
		}
	}
	return nil
}

// eventCost is the bare event kernel: one Schedule and one Step per
// event, a handler chain with one event pending at a time.
func eventCost() float64 {
	const n = 500_000
	eng := event.NewEngine()
	i := 0
	var fn event.Handler
	fn = func(at event.Time) error {
		if i++; i < n {
			eng.Schedule(at+1, fn)
		}
		return nil
	}
	eng.Schedule(0, fn)
	t := time.Now()
	if err := eng.Run(); err != nil {
		return 0
	}
	return float64(time.Since(t)) / n
}

// streamCost times Next on a fresh copy of a core's stream.
func streamCost(prof workload.Profile, prog *program.Program, layout program.Layout, seed int64) float64 {
	const n = 100_000
	s := workload.NewStream(prof, prog, layout, seed)
	t := time.Now()
	for i := 0; i < n; i++ {
		s.Next()
	}
	return float64(time.Since(t)) / n
}

// missProbe times the L1 calls of a lone core that left the core on a
// miss: with no other core to run while it waits, each is one round
// trip through the port, the coroutine switch, the shared L2 and back.
type missProbe struct {
	bias   float64 // an empty timed interval
	ns     float64
	n      int64
	events func() uint64
}

func (p *missProbe) time(fn func() core.AccessOutcome) core.AccessOutcome {
	e0 := p.events()
	t := time.Now()
	o := fn()
	d := float64(time.Since(t))
	if p.events() != e0 {
		p.ns += d - p.bias
		p.n++
	}
	return o
}

type probeIC struct {
	core.InstrCache
	p *missProbe
}

func (c probeIC) Fetch(a uint64) core.AccessOutcome {
	return c.p.time(func() core.AccessOutcome { return c.InstrCache.Fetch(a) })
}

type probeDC struct {
	core.DataCache
	p *missProbe
}

func (c probeDC) Read(a uint64) core.AccessOutcome {
	return c.p.time(func() core.AccessOutcome { return c.DataCache.Read(a) })
}

// timerBias is the mean length of an empty timed interval.
func timerBias() float64 {
	const n = 100_000
	var sum time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sum += time.Since(t)
	}
	return float64(sum) / n
}

func traceHier(ctx context.Context, seed int64, tr *tracer) (layerMetrics, error) {
	acc := &hierAcc{}
	var merges, reads, injected, recovery uint64
	var waitSum, cycles float64
	var transitions int
	specs := hierSpecs(seed)
	for _, spec := range specs {
		t := time.Now()
		want, err := sim.RunHierChaos(ctx, spec)
		if err != nil {
			return nil, err
		}
		acc.refNS += int64(time.Since(t))

		root := tr.begin("campaign", specKey(sim.KindHierChaos, spec))
		t = time.Now()
		got, epochs, cores, err := rebuildHierChaos(ctx, tr, acc, spec, recordL1)
		acc.tracedNS += int64(time.Since(t))
		tr.end(root)
		if err != nil {
			return nil, err
		}
		a, _ := json.Marshal(want)
		b, _ := json.Marshal(got)
		if !bytes.Equal(a, b) {
			return nil, fmt.Errorf("campaign %s: rebuilt result differs from sim.RunHierChaos", tr.spans[root].Key)
		}
		// Each epoch's L1 and stream time comes from replays; the rest of
		// the epoch is the hierarchy's own (event kernel, coroutines,
		// shared L2, cpu loop).
		if err := replayEpochs(tr, acc, epochs, cores, spec); err != nil {
			return nil, err
		}
		merges += got.L2.Merges
		reads += got.L2.Reads
		waitSum += got.L2.MeanReadWaitCycles(dvfs.Nominal())
		for _, c := range got.Cores {
			injected += c.Totals.Injected()
			transitions += c.StepUps + c.StepDowns
		}
		for _, ep := range got.Epochs {
			for _, c := range ep.Cores {
				recovery += uint64(c.Result.RecoveryCycles)
				cycles += c.Result.Cycles()
			}
		}
	}

	probe := specs[0]
	probe.Cores, probe.Epochs = probe.Cores[:1], 1
	mp := &missProbe{bias: timerBias()}
	if _, _, _, err := rebuildHierChaos(ctx, nil, &hierAcc{}, probe,
		func(_ *hierSeg, ic core.InstrCache, dc core.DataCache, events func() uint64) (core.InstrCache, core.DataCache) {
			mp.events = events
			return probeIC{ic, mp}, probeDC{dc, mp}
		}); err != nil {
		return nil, err
	}

	lm := layerMetrics{}
	count := countByName(tr.spans)
	dur := durByName(tr.spans)
	setupMetrics(tr.spans, lm, count["hier.set_rig"], acc.epochNS)
	lm["workload.stream_next_ns"] = ratio(acc.streamNS, float64(acc.executed))
	lm["workload.instrs_executed"] = float64(acc.executed)
	lm["bbr.links"] = float64(acc.links)
	lm["bbr.yield_fail_frac"] = ratio(float64(acc.linkFails), float64(acc.links))
	lm["bbr.fetch_ns"] = ratio(acc.fetchNS, float64(acc.fetchN))
	lm["ffw.read_ns"] = ratio(acc.readNS, float64(acc.readN))
	lm["ffw.write_ns"] = ratio(acc.writeNS, float64(acc.writeN))
	lm["event.ns_per_event"] = eventCost()
	lm["hier.events"] = float64(acc.events)
	lm["hier.host_ns_per_event"] = ratio(float64(acc.epochNS), float64(acc.events))
	lm["hier.miss_roundtrip_ns"] = ratio(mp.ns, float64(mp.n))
	lm["hier.epoch_ms"] = ratio(float64(dur["hier.run_epoch"]), float64(count["hier.run_epoch"])) / 1e6
	lm["hier.set_rig_ms"] = ratio(float64(dur["hier.set_rig"]), float64(count["hier.set_rig"])) / 1e6
	lm["hier.l2_merge_frac"] = ratio(float64(merges), float64(reads))
	lm["hier.l2_wait_cycles"] = waitSum / float64(len(specs))
	lm["inject.faults_injected"] = float64(injected)
	lm["inject.recovery_cycle_frac"] = ratio(float64(recovery), cycles)
	lm["dvfs.transitions"] = float64(transitions)
	lm["trace.overhead_frac"] = ratio(float64(acc.tracedNS), float64(acc.refNS)) - 1
	return lm, nil
}
