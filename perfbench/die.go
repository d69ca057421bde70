package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/dist"
	"repro/internal/dvfs"
	"repro/internal/faultmap"
	"repro/internal/sim"
)

// A die campaign is lvdie's multi-die mode: every die swept across the
// DVFS ladder with short runs, so run setup (nested fault maps, program
// build, BBR transform and link, the 512 KB L2 allocation) outweighs
// the instruction loop. Simple-wdis rides along as the scheme that
// bypasses BBR.
var dieSchemes = []sim.Scheme{sim.FFWBBR, sim.SimpleWdis}

// Checkpoints are flushed every dieFlushEvery rows: each flush is an
// fsync, whose latency follows the host's disk load rather than the
// program, and flushed after every row they take about a quarter of
// the campaign's time.
const (
	dieCount        = 8
	dieFlushEvery   = 8
	dieBench        = "basicmath"
	dieInstructions = 4_000
	dieShards       = concurrency
)

// runDir holds the checkpoint files of die campaigns (inside the
// checkout, ignored by git).
const runDir = ".bench_build/run"

func dieSpecs(seed int64) []sim.DieSpec {
	var specs []sim.DieSpec
	for d := 0; d < dieCount; d++ {
		for _, s := range dieSchemes {
			specs = append(specs, sim.DieSpec{Scheme: s, Benchmark: dieBench, DieSeed: seed*1000 + int64(d),
				WorkSeed: seed, Instructions: dieInstructions, CPU: cpu.DefaultConfig()})
		}
	}
	return specs
}

// diePayloads marshals the campaign's dist inputs.
func diePayloads(seed int64) (payloads []json.RawMessage, setup json.RawMessage, err error) {
	for _, s := range dieSpecs(seed) {
		b, err := json.Marshal(s)
		if err != nil {
			return nil, nil, err
		}
		payloads = append(payloads, b)
	}
	// One engine worker per worker process: the two shards are the
	// campaign's whole parallelism.
	setup, err = json.Marshal(sim.DistSetup{Workers: 1})
	return payloads, setup, err
}

// dieCampaign runs one sharded campaign with a checkpoint file. Workers
// are not restarted, and any supervision warning (a worker that died,
// went silent or could not start, or the fallback to in-process
// execution) fails the campaign: the rows would still be right, but the
// run would not have timed sharded dist. env is appended to the
// workers' environment.
func dieCampaign(ctx context.Context, payloads []json.RawMessage, setup json.RawMessage, ckpt string, shards int, env []string) ([]json.RawMessage, error) {
	var log syncBuffer
	rows, done, err := dist.Run(ctx, sim.KindDie, payloads, dist.Options{
		Shards: shards, Checkpoint: ckpt, Setup: setup, LocalWorkers: concurrency,
		FlushEvery: dieFlushEvery, MaxRestarts: -1, Env: env, Stderr: &log,
	})
	if err != nil {
		return nil, err
	}
	if w := log.String(); strings.Contains(w, "dist: warning") {
		return nil, fmt.Errorf("dist supervision: %s", strings.TrimSpace(w))
	}
	for i, d := range done {
		if !d {
			return nil, fmt.Errorf("die row %d did not complete", i)
		}
	}
	return rows, nil
}

// syncBuffer collects the supervisor's and the workers' stderr, which
// are written from several goroutines.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func checkpointPath() (string, error) {
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return "", err
	}
	return filepath.Abs(filepath.Join(runDir, fmt.Sprintf("die-%d.ckpt", os.Getpid())))
}

// dieOutput is the campaign's canonical output (its rows in grid order)
// and the useful instructions they report.
func dieOutput(rows []json.RawMessage) ([]byte, uint64, error) {
	var instrs uint64
	for i, row := range rows {
		var sw sim.DieSweep
		if err := json.Unmarshal(row, &sw); err != nil {
			return nil, 0, fmt.Errorf("die row %d: %w", i, err)
		}
		for _, p := range sw.Points {
			instrs += p.Result.Instructions
		}
	}
	b, err := json.Marshal(rows)
	return b, instrs, err
}

var dieWorkload = benchmark{
	name: "die-campaign",
	prepare: func(seed int64, _ int) (*iteration, error) {
		payloads, setup, err := diePayloads(seed)
		if err != nil {
			return nil, err
		}
		ckpt, err := checkpointPath()
		if err != nil {
			return nil, err
		}
		if err := os.Remove(ckpt); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		return &iteration{
			run: func(ctx context.Context) (iterOut, error) {
				t := time.Now()
				rows, err := dieCampaign(ctx, payloads, setup, ckpt, dieShards, nil)
				out := iterOut{ops: []opSample{{latency: time.Since(t), failed: err != nil}}}
				if err != nil {
					return out, err
				}
				out.output, out.instrs, err = dieOutput(rows)
				return out, err
			},
			close: func() { _ = os.Remove(ckpt) }, // a leftover checkpoint is removed again by the next prepare
		}, nil
	},
	check: func(ctx context.Context, seed int64, out iterOut) error {
		payloads, setup, err := diePayloads(seed)
		if err != nil {
			return err
		}
		rows, err := dieCampaign(ctx, payloads, setup, "", 0, nil)
		if err != nil {
			return err
		}
		b, _, err := dieOutput(rows)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, out.output) {
			return errors.New("sharded die rows differ from the same grid run in-process")
		}
		return nil
	},
	trace: traceDie,
}

func traceDie(ctx context.Context, seed int64, tr *tracer) (layerMetrics, error) {
	payloads, setup, err := diePayloads(seed)
	if err != nil {
		return nil, err
	}
	ckpt, err := checkpointPath()
	if err != nil {
		return nil, err
	}
	// A checkpoint left by an earlier pass must not be resumed; the
	// file is disposable either way.
	_ = os.Remove(ckpt)
	defer func() { _ = os.Remove(ckpt) }()

	t := time.Now()
	rows, err := dieCampaign(ctx, payloads, setup, ckpt, dieShards, nil)
	if err != nil {
		return nil, err
	}
	sharded := time.Since(t)
	t = time.Now()
	local, err := dieCampaign(ctx, payloads, setup, "", 0, nil)
	if err != nil {
		return nil, err
	}
	inProcess := time.Since(t)
	a, _, err := dieOutput(rows)
	if err != nil {
		return nil, err
	}
	b, _, err := dieOutput(local)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(a, b) {
		return nil, errors.New("sharded die rows differ from the in-process rows")
	}

	lm := layerMetrics{}
	lm["dist.row_ms"] = sharded.Seconds() * 1e3 * dieShards / float64(len(rows))
	lm["dist.overhead_frac"] = ratio(sharded.Seconds(), inProcess.Seconds()) - 1
	cp, err := dist.LoadCheckpoint(ckpt)
	if err != nil {
		return nil, err
	}
	const flushes = 5
	t = time.Now()
	for i := 0; i < flushes; i++ {
		if err := dist.SaveCheckpoint(ckpt, cp); err != nil {
			return nil, err
		}
	}
	lm["dist.checkpoint_flush_ms"] = time.Since(t).Seconds() * 1e3 / flushes

	// Rebuild every die's sweep from public constructors and check each
	// point against the row the workers returned.
	acc := newRunAcc()
	specs := dieSpecs(seed)
	base := sim.RunSpec{Scheme: sim.Conventional, Benchmark: dieBench, Op: dvfs.Nominal(),
		WorkSeed: seed, Instructions: dieInstructions, CPU: cpu.DefaultConfig()}
	baseIn := runInputs{key: specKey("sim.run", base), scheme: base.Scheme, bench: base.Benchmark, op: base.Op,
		workSeed: base.WorkSeed, n: base.Instructions, cfg: base.CPU}
	if err := traceRun(ctx, tr, acc, baseIn,
		func(tr *tracer) (*faultmap.Map, *faultmap.Map) { return drawMaps(tr, 0, 0) },
		func() (cpu.Result, error) { return sim.RunContext(ctx, base) }, true); err != nil {
		return nil, err
	}
	// The untraced reference for each die is its sweep on a local
	// engine (the baseline is then a memo hit, as in a worker).
	eng := sim.NewEngine(1)
	if _, err := eng.Run(ctx, base); err != nil {
		return nil, err
	}
	for i, spec := range specs {
		var sw sim.DieSweep
		if err := json.Unmarshal(rows[i], &sw); err != nil {
			return nil, err
		}
		t := time.Now()
		if _, err := eng.SweepDie(ctx, spec.Scheme, spec.Benchmark, spec.DieSeed, spec.WorkSeed, spec.Instructions, spec.CPU); err != nil {
			return nil, err
		}
		acc.refNS += int64(time.Since(t))
		// The row's own span holds its nested-map draws; each point is
		// a run span of its own.
		row := tr.begin("row", sim.SpecHash(sim.KindDie, payloads[i]))
		start := time.Now()
		var seriesI, seriesD *faultmap.Series
		tr.do("faultmap.new_series", func() { seriesI = faultmap.NewSeries(l1Words, rand.New(rand.NewSource(spec.DieSeed*2+11))) })
		tr.do("faultmap.new_series", func() { seriesD = faultmap.NewSeries(l1Words, rand.New(rand.NewSource(spec.DieSeed*2+12))) })
		tr.end(row)
		acc.tracedNS += int64(time.Since(start))
		for j, op := range dvfs.LowVoltagePoints() {
			p := sw.Points[j]
			in := runInputs{key: specKey("sim.die.point", struct {
				Die sim.DieSpec
				MV  int
			}{spec, op.VoltageMV}), scheme: spec.Scheme, bench: spec.Benchmark, op: op,
				workSeed: spec.WorkSeed, n: spec.Instructions, cfg: spec.CPU}
			draw := func(tr *tracer) (fmI, fmD *faultmap.Map) {
				tr.do("faultmap.map_at", func() { fmI = seriesI.MapAt(op.PfailBit) })
				tr.do("faultmap.map_at", func() { fmD = seriesD.MapAt(op.PfailBit) })
				return fmI, fmD
			}
			ref := func() (cpu.Result, error) {
				if !p.Yield {
					return cpu.Result{}, sim.ErrYield
				}
				return p.Result, nil
			}
			if err := traceRun(ctx, tr, acc, in, draw, ref, false); err != nil {
				return nil, err
			}
		}
	}
	acc.metrics(tr.spans, lm)
	if share := lm["sim.setup_share"]; share <= 0.5 {
		return nil, fmt.Errorf("run setup is only %.1f%% of die-campaign's run time; the workload must be setup-dominated", 100*share)
	}
	return lm, nil
}
