// Package cpu is the trace-driven timing model of the paper's embedded
// core (Table I: 2-way superscalar, ARM Cortex-A9 class, modelled in gem5
// arm-detailed by the authors).
//
// The model is deliberately first-order: the paper's conclusions rest on
// (i) the L1 hit latency sitting in the fetch-redirect and load-to-use
// loops, and (ii) the defect-induced extra L2 accesses. Both are modelled
// directly and the constants are calibrated to the paper's anchor points
// (a +1-cycle L1 costs ~40% at 560 mV; Simple-wdis costs ~6%). Runtime
// decomposes into the paper's three components (after [35]): base issue
// cycles, L1-latency cycles, and L2/memory stall cycles.
//
// Timing rules:
//
//   - Issue: 1/Width cycles per instruction.
//   - Taken control transfer: the BTB and next-line predictor hide the
//     design-point fetch latency, so a predicted-taken branch is free at
//     the 2-cycle baseline; L1I latency beyond the design point cannot be
//     hidden and bubbles the front end (L1 component). A mispredicted
//     conditional pays the branch-resolution penalty (base component)
//     plus a refill through the L1I (L1 component).
//   - Instruction fetch miss: the cycles beyond the L1I hit latency stall
//     the front end (memory component).
//   - Load miss: blocking; the cycles beyond the L1D hit latency stall
//     the core (memory component).
//   - Load-to-use: a consumer issuing back-to-back with its producer load
//     stalls for hitLatency-1 cycles (L1 component) — one cycle is hidden
//     by forwarding.
//   - Stores retire through the write buffer: no stall.
package cpu

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/program"
	"repro/internal/workload"
)

// Config fixes the core parameters (Table I).
type Config struct {
	// Width is the superscalar issue width.
	Width int
	// MispredictPenalty is the branch-resolution penalty in cycles.
	MispredictPenalty int
	// LoadExposure is the fraction of each load's hit latency beyond the
	// 2-cycle pipeline design point that stalls issue even without an
	// explicit dependence — the shallow window of a 2-way embedded core
	// hides very little of an unexpected extra cycle. Calibrated so a
	// +1-cycle L1 costs around 40% runtime at 560 mV (the paper's
	// Figure 10 anchor).
	LoadExposure float64
}

// DefaultConfig is the paper's 2-way core. The 10-cycle resolution
// penalty approximates the Cortex-A9-class pipeline depth.
func DefaultConfig() Config {
	return Config{Width: 2, MispredictPenalty: 10, LoadExposure: 0.9}
}

// designHitLatency is the L1 latency the pipeline is designed around
// (Table I: 2 cycles); latency beyond it is exposed per LoadExposure.
const designHitLatency = 2

// Result aggregates one simulation run.
type Result struct {
	// Instructions counts *useful* (work) instructions — the unit every
	// cross-scheme metric is normalized by. BBR-inserted jumps execute
	// and cost cycles but are excluded here.
	Instructions uint64
	// Executed counts all executed instructions, including BBR overhead
	// jumps; Executed >= Instructions, equal for every non-BBR scheme.
	Executed uint64

	// Cycle components; Cycles() is their sum.
	BaseCycles     float64 // issue bandwidth + branch resolution
	L1Cycles       float64 // L1 hit latency exposure (redirects, load-to-use)
	MemCycles      float64 // L2 and memory stalls
	RecoveryCycles float64 // fault detection/recovery stalls (runtime injection)

	// Event counts.
	Loads, Stores, Branches, TakenBranches, Mispredicts uint64
	FetchMisses, LoadMisses                             uint64
	L2Reads, MemReads                                   uint64 // demand traffic below L1
}

// Cycles returns total cycles.
func (r Result) Cycles() float64 {
	return r.BaseCycles + r.L1Cycles + r.MemCycles + r.RecoveryCycles
}

// CPI returns cycles per executed instruction (microarchitectural
// diagnostic; cross-scheme comparisons should use Cycles() directly,
// which is per fixed useful work).
func (r Result) CPI() float64 {
	if r.Executed == 0 {
		return 0
	}
	return r.Cycles() / float64(r.Executed)
}

// RuntimeSeconds converts cycles to wall-clock time at freqMHz.
func (r Result) RuntimeSeconds(freqMHz float64) float64 {
	return r.Cycles() / (freqMHz * 1e6)
}

// L2PerKiloInstr returns demand L2 reads per 1000 instructions — the
// metric of Figure 11.
func (r Result) L2PerKiloInstr() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return 1000 * float64(r.L2Reads) / float64(r.Instructions)
}

// RunContext executes the stream until n useful instructions have
// retired (for BBR-transformed programs, inserted jumps execute on top
// of those). Both caches must share the NextLevel so L2 contents
// interleave realistically; next is read for traffic deltas only. The
// context is polled every few thousand instructions, and a cancelled or
// expired context aborts the run with the context's error (and the
// partial Result accumulated so far). Used by campaign drivers to
// enforce per-job timeouts.
func RunContext(ctx context.Context, cfg Config, s *workload.Stream, ic core.InstrCache, dc core.DataCache, next *core.NextLevel, n uint64) (Result, error) {
	return RunClocked(ctx, cfg, s, ic, dc, next, n, nil)
}

// Clock observes the run's cycle count as it advances. The event-driven
// hierarchy (package hier) uses it to place the core's memory requests
// on the simulated timeline; the trace-driven path passes nil and pays
// nothing but a branch per instruction.
type Clock interface {
	// Advance reports the core's total cycle count so far, once per
	// instruction just before it issues. Monotonically non-decreasing.
	Advance(cycles float64)
}

// RunClocked is RunContext with an optional per-instruction clock hook
// (nil for none). Identical timing and statistics either way: the hook
// observes the run, it does not perturb it.
func RunClocked(ctx context.Context, cfg Config, s *workload.Stream, ic core.InstrCache, dc core.DataCache, next *core.NextLevel, n uint64, clk Clock) (Result, error) {
	if cfg.Width < 1 {
		return Result{}, fmt.Errorf("cpu: width %d", cfg.Width)
	}
	if n == 0 {
		return Result{}, fmt.Errorf("cpu: zero instructions requested")
	}
	var r Result
	issue := 1 / float64(cfg.Width)
	l2Before, memBefore := next.DemandReads(), next.MemReads()
	// Hit latencies are constant for a cache's lifetime (see
	// core.InstrCache), so the loop reads them once.
	icHit, dcHit := ic.HitLatency(), dc.HitLatency()

	// Transform overhead is bounded (≤1 jump per block visit), so the
	// executed total is capped defensively at 2n plus slack.
	for limit := 2*n + 1024; r.Instructions < n && r.Executed < limit; {
		if r.Executed&0xfff == 0 {
			if err := ctx.Err(); err != nil {
				return r, err
			}
		}
		if clk != nil {
			clk.Advance(r.Cycles())
		}
		in := s.Next()
		r.Executed++
		if !in.Overhead {
			r.Instructions++
		}
		r.BaseCycles += issue

		// Front end: fetch the instruction.
		fo := ic.Fetch(in.PC)
		if !fo.Hit {
			r.FetchMisses++
			r.MemCycles += float64(fo.Latency - icHit)
		} else if extra := fo.Latency - icHit; extra > 0 {
			// A hit slower than the hit latency is a detected-fault
			// retry/recovery stall injected by the fault layer.
			r.RecoveryCycles += float64(extra)
		}

		switch in.Kind {
		case program.KindLoad:
			r.Loads++
			do := dc.Read(in.MemAddr)
			if !do.Hit {
				r.LoadMisses++
				r.MemCycles += float64(do.Latency - dcHit)
			} else if extra := do.Latency - dcHit; extra > 0 {
				r.RecoveryCycles += float64(extra)
			}
			if extra := dcHit - designHitLatency; extra > 0 {
				r.L1Cycles += float64(extra) * cfg.LoadExposure
			}
		case program.KindStore:
			r.Stores++
			dc.Write(in.MemAddr)
		case program.KindBranch:
			r.Branches++
			if in.Taken {
				r.TakenBranches++
				// Predicted redirects hide the design-point fetch
				// latency; extra L1I latency bubbles the front end.
				if extra := icHit - designHitLatency; extra > 0 {
					r.L1Cycles += float64(extra)
				}
			}
			if in.Mispredicted {
				r.Mispredicts++
				r.BaseCycles += float64(cfg.MispredictPenalty)
				// The recovery refill goes through the L1I.
				r.L1Cycles += float64(icHit)
			}
		case program.KindALU:
			// Register-to-register work is covered by the base CPI.
		}

		if in.DependsOnLoad {
			// Back-to-back consumer: expose hit latency minus the
			// forwarded cycle.
			r.L1Cycles += float64(dcHit - 1)
		}
	}
	r.L2Reads = next.DemandReads() - l2Before
	r.MemReads = next.MemReads() - memBefore
	return r, nil
}
