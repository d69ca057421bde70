package sim

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/bbr"
	"repro/internal/dvfs"
	"repro/internal/engine"
	"repro/internal/faultmap"
	"repro/internal/program"
	"repro/internal/schemes"
	"repro/internal/sram"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Fig2Curve reproduces Figure 2: failure probability versus supply
// voltage at bit/word/block/cache granularity for the 6T cell.
func Fig2Curve() []sram.GranularityPoint {
	return sram.NewModel().GranularityCurve(sram.Cell6T, 350, 900, 10)
}

// Fig3Result is one benchmark's measured locality (Figure 3).
type Fig3Result struct {
	Benchmark string
	trace.Summary
}

// Fig3 measures spatial locality and word reuse for every benchmark with
// the paper's 10k-instruction interval method, one engine job per
// benchmark, results in suite order.
func (e *Engine) Fig3(ctx context.Context, instructions int, seed int64) ([]Fig3Result, error) {
	profs := workload.Profiles()
	return engine.Map(ctx, e.pool, len(profs), func(ctx context.Context, i int) (Fig3Result, error) {
		prof := profs[i]
		prog, err := workload.BuildProgram(prof, seed, nil)
		if err != nil {
			return Fig3Result{}, err
		}
		s := workload.NewStream(prof, prog, program.NewSequentialLayout(prog, 0), seed)
		a := trace.NewAnalyzer(trace.IntervalInstrs)
		for i := 0; i < instructions; i++ {
			in := s.Next()
			if in.Kind == program.KindLoad || in.Kind == program.KindStore {
				a.Observe(in.MemAddr)
			}
			a.Tick()
		}
		return Fig3Result{Benchmark: prof.Name, Summary: a.Summarize()}, nil
	})
}

// Fig6Result reproduces Figure 6 for one benchmark/operating point.
type Fig6Result struct {
	// CapacityKB is the distribution of the instruction cache's effective
	// capacity (fault-free words) over Monte Carlo fault maps, in KB
	// (Figure 6a).
	CapacityKB   stats.Summary
	CapacityHist *stats.Histogram
	// BBSizes and ChunkSizes are the distributions Figure 6b compares:
	// transformed basic-block footprints versus fault-free chunk lengths
	// (both capped at 20 for the histogram tail).
	BBSizes    *stats.Histogram
	ChunkSizes *stats.Histogram
	// Placeable is the fraction of maps on which every block found a
	// chunk.
	Placeable float64
}

// fig6Sample is one fault map's contribution to Figure 6.
type fig6Sample struct {
	kb     float64
	chunks []int
	placed bool
}

// Fig6 runs the capacity study (the paper uses basicmath at 400 mV). It
// draws and measures each Monte Carlo fault map as one engine job
// (the transformed program is shared read-only by the placement
// checks), then folds the samples in map order.
func (e *Engine) Fig6(ctx context.Context, benchmark string, op dvfs.OperatingPoint, maps int, seed int64) (*Fig6Result, error) {
	prof, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	prog, err := bbrProgram(prof, seed)
	if err != nil {
		return nil, err
	}

	res := &Fig6Result{
		CapacityHist: stats.NewHistogram(0, 32.0001, 32),
		BBSizes:      stats.NewHistogram(0, 20.0001, 20),
		ChunkSizes:   stats.NewHistogram(0, 20.0001, 20),
	}
	for i := range prog.Blocks {
		res.BBSizes.Add(float64(prog.Blocks[i].Footprint()))
	}

	samples, err := engine.Map(ctx, e.pool, maps, func(ctx context.Context, m int) (fig6Sample, error) {
		fm := faultmap.Generate(l1Words, op.PfailBit, rand.New(rand.NewSource(seed+int64(m)*7919)))
		s := fig6Sample{kb: float64(fm.FaultFreeWords()) * 4 / 1024}
		for _, c := range fm.Chunks() {
			s.chunks = append(s.chunks, c.Len)
		}
		if _, err := bbr.Link(prog, fm, 0); err == nil {
			s.placed = true
		}
		return s, nil
	})
	if err != nil {
		return nil, err
	}

	var caps []float64
	placed := 0
	for _, s := range samples {
		caps = append(caps, s.kb)
		res.CapacityHist.Add(s.kb)
		for _, l := range s.chunks {
			res.ChunkSizes.Add(float64(l))
		}
		if s.placed {
			placed++
		}
	}
	sum, err := stats.Summarize(caps)
	if err != nil {
		return nil, err
	}
	res.CapacityKB = sum
	res.Placeable = float64(placed) / float64(maps)
	return res, nil
}

// YieldRow is one scheme's coverage at one operating point: the fraction
// of Monte Carlo dies on which the scheme guarantees architecturally
// correct execution.
type YieldRow struct {
	Scheme    string
	VoltageMV int
	Yield     float64
}

// yieldVerdict is one (operating point, map) coverage draw.
type yieldVerdict struct {
	wilk, bitfix, bbr bool
}

// YieldAnalysis estimates per-scheme yield across the DVFS table. It
// covers the two schemes with non-trivial yield behaviour: plain
// Wilkerson word-disable (no residual-fault fallback — the paper notes it
// cannot reach 99.9% below 480 mV) and BBR (every basic block must find a
// chunk). The word-disable/buffer schemes degrade gracefully and always
// yield.
//
// It flattens the (operating point × map) grid into engine jobs — each
// draws its own seeded map and tests the three coverage predicates
// against the shared read-only reference program — and folds the
// verdicts per operating point.
func (e *Engine) YieldAnalysis(ctx context.Context, maps int, seed int64) ([]YieldRow, error) {
	if maps < 1 {
		return nil, fmt.Errorf("sim: need at least one map")
	}
	// A reference transformed program exercises BBR's placement.
	prof, err := workload.ByName("basicmath")
	if err != nil {
		return nil, err
	}
	prog, err := bbrProgram(prof, seed)
	if err != nil {
		return nil, err
	}

	ops := dvfs.LowVoltagePoints()
	verdicts, err := engine.Map(ctx, e.pool, len(ops)*maps, func(ctx context.Context, k int) (yieldVerdict, error) {
		op, m := ops[k/maps], k%maps
		rng := rand.New(rand.NewSource(seed + int64(op.VoltageMV)*100003 + int64(m)))
		fm := faultmap.Generate(l1Words, op.PfailBit, rng)
		v := yieldVerdict{
			wilk:   schemes.Coverable(fm),
			bitfix: schemes.CoverableBitFix(fm),
		}
		if _, err := bbr.Link(prog, fm, 0); err == nil {
			v.bbr = true
		}
		return v, nil
	})
	if err != nil {
		return nil, err
	}

	var rows []YieldRow
	for oi, op := range ops {
		wilkOK, bitfixOK, bbrOK := 0, 0, 0
		for _, v := range verdicts[oi*maps : (oi+1)*maps] {
			if v.wilk {
				wilkOK++
			}
			if v.bitfix {
				bitfixOK++
			}
			if v.bbr {
				bbrOK++
			}
		}
		rows = append(rows,
			YieldRow{Scheme: "Wilkerson (plain)", VoltageMV: op.VoltageMV, Yield: float64(wilkOK) / float64(maps)},
			YieldRow{Scheme: "Bit-fix (plain)", VoltageMV: op.VoltageMV, Yield: float64(bitfixOK) / float64(maps)},
			YieldRow{Scheme: "BBR", VoltageMV: op.VoltageMV, Yield: float64(bbrOK) / float64(maps)},
		)
	}
	return rows, nil
}
