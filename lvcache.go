// Package lvcache reproduces "Enabling Deep Voltage Scaling in Delay
// Sensitive L1 Caches" (Yan & Joseph, DSN 2016): fault-tolerant L1 cache
// schemes — the paper's Fault-Free Window data cache and Basic Block
// Relocation instruction cache, plus the comparison schemes — over a
// complete simulation stack (SRAM failure model, fault maps, cache and
// CPU timing models, synthetic SPEC/MiBench-shaped workloads, and a
// CACTI-style area/latency/leakage model).
//
// This package is the public facade: it re-exports the experiment types,
// and the paper's experiments run as methods of an Engine from NewEngine.
// The implementation lives under internal/ (one package per subsystem; see
// DESIGN.md for the map). Typical use:
//
//	cfg := lvcache.QuickConfig()
//	cells, err := lvcache.NewEngine(0).Evaluate(ctx, cfg, lvcache.EvalSchemes(), nil, nil)
//
// runs the paper's Figure 10–12 evaluation grid: every scheme at every
// low-voltage operating point, Monte Carlo over fault maps, normalized
// runtime / L2 traffic / energy per instruction.
package lvcache

import (
	"context"

	"repro/internal/cacti"
	"repro/internal/cpu"
	"repro/internal/dvfs"
	"repro/internal/event"
	"repro/internal/hier"
	"repro/internal/inject"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sram"
	"repro/internal/workload"
)

// Core experiment types, re-exported from the driver.
type (
	// Scheme identifies one evaluated L1 cache configuration.
	Scheme = sim.Scheme
	// Config scales a Monte Carlo evaluation.
	Config = sim.Config
	// RunSpec pins one simulation run.
	RunSpec = sim.RunSpec
	// EvalCell is one (scheme, voltage) cell of the evaluation.
	EvalCell = sim.EvalCell
	// OperatingPoint is a DVFS configuration from the paper's Table II.
	OperatingPoint = dvfs.OperatingPoint
	// Profile is a synthetic benchmark workload.
	Profile = workload.Profile
	// CPUConfig fixes the timing model's core parameters.
	CPUConfig = cpu.Config
	// Result is one timing-simulation outcome.
	Result = cpu.Result
	// DieSweep is one die evaluated across the whole DVFS ladder with
	// voltage-nested fault maps.
	DieSweep = sim.DieSweep
	// DiePoint is one operating point of a die sweep.
	DiePoint = sim.DiePoint
	// Engine is the experiment scheduler: a bounded worker pool with a
	// seed-keyed run memo. Share one Engine across calls so repeated
	// RunSpecs (baselines, overlapping grids) simulate only once;
	// results are byte-identical at any worker count for a fixed seed.
	Engine = sim.Engine
	// InjectParams configures deterministic runtime fault injection on a
	// RunSpec or ChaosSpec (the zero value disables it).
	InjectParams = inject.Params
	// InjectStats is the detection/recovery ledger of an injected run.
	InjectStats = inject.Stats
	// BackoffConfig tunes the graceful voltage back-off controller.
	BackoffConfig = dvfs.BackoffConfig
	// ChaosSpec pins one fault-injection campaign: an FFW+BBR die under
	// runtime injection, steered by the back-off controller.
	ChaosSpec = sim.ChaosSpec
	// ChaosResult aggregates one campaign: per-epoch trace, residency
	// histogram, fault ledger and controller transitions.
	ChaosResult = sim.ChaosResult
	// ChaosEpoch is one controller epoch of a campaign.
	ChaosEpoch = sim.ChaosEpoch
	// Residency is campaign time spent at one operating point.
	Residency = sim.Residency
	// RowSpec is one lvsim-style grid cell: a scheme × benchmark Monte
	// Carlo evaluation at one operating point (Engine.EvalRow).
	RowSpec = sim.RowSpec
	// RowResult is the cell's Monte Carlo aggregate; its fields are
	// exact-round-trip JSON types, so results are byte-stable across the
	// distributed execution boundary (internal/dist).
	RowResult = sim.RowResult
	// DieSpec pins one die's DVFS-ladder sweep for distributed execution.
	DieSpec = sim.DieSpec
	// Hierarchy is the event-driven multicore memory hierarchy: N core
	// components (each a full L1 scheme rig) sharing a banked L2 with
	// MSHRs over latency-annotated ports, on one deterministic
	// discrete-event engine per run.
	Hierarchy = hier.Hierarchy
	// HierConfig shapes a Hierarchy (core count, shared L2 parameters).
	HierConfig = hier.Config
	// L2Params configures the shared L2 (banks, MSHRs, occupancy, DRAM
	// latency, link latency).
	L2Params = hier.L2Params
	// L2Stats is the shared L2's contention ledger.
	L2Stats = hier.L2Stats
	// EventTime is simulated time in femtoseconds (internal/event).
	EventTime = event.Time
	// HierSpec pins one event-driven multicore run: per-core benchmarks,
	// voltage domains and fault maps against one shared L2.
	HierSpec = sim.HierSpec
	// HierCoreSpec pins one core of a HierSpec.
	HierCoreSpec = sim.HierCoreSpec
	// HierResult aggregates one multicore run.
	HierResult = sim.HierResult
	// HierCoreResult is one core's outcome within a HierResult.
	HierCoreResult = sim.HierCoreResult
	// HierChaosSpec pins one multicore fault-injection campaign with
	// per-core back-off controllers.
	HierChaosSpec = sim.HierChaosSpec
	// HierChaosCoreSpec pins one core of a HierChaosSpec.
	HierChaosCoreSpec = sim.HierChaosCoreSpec
	// HierChaosResult aggregates one multicore campaign.
	HierChaosResult = sim.HierChaosResult
	// Server is the hardened simulation service behind cmd/lvserve:
	// canonical-JSON spec endpoints over a coalescing response cache,
	// bounded admission with load shedding, and graceful drain.
	Server = serve.Server
	// ServeConfig tunes a Server; its zero value is a working
	// single-host service.
	ServeConfig = serve.Config
	// ServeStats is the service's /v1/stats ledger document.
	ServeStats = serve.Stats
	// SweepSpec is the service's /v1/sweep request: explicit cells or a
	// scheme × benchmark × voltage grid, streamed back as NDJSON rows.
	SweepSpec = serve.SweepSpec
)

// NewEngine returns an experiment engine bounded to the given worker
// count; workers <= 0 selects GOMAXPROCS.
func NewEngine(workers int) *Engine { return sim.NewEngine(workers) }

// NewServer builds the hardened simulation service. Mount
// Server.Handler on any net/http server; call Server.Drain on
// shutdown to finish admitted work and shed the rest.
func NewServer(cfg ServeConfig) *Server { return serve.New(cfg) }

// The evaluated schemes.
const (
	DefectFree    = sim.DefectFree
	Conventional  = sim.Conventional
	EightT        = sim.EightT
	SimpleWdis    = sim.SimpleWdis
	WilkersonPlus = sim.WilkersonPlus
	FBA64         = sim.FBA64
	FBAPlus       = sim.FBAPlus
	IDC64         = sim.IDC64
	IDCPlus       = sim.IDCPlus
	FFWBBR        = sim.FFWBBR
	// SECDEDScheme is the per-word ECC extension baseline (not in the
	// paper's evaluated set).
	SECDEDScheme = sim.SECDEDScheme
	// BitFixScheme is the word-granularity bit-fix extension baseline.
	BitFixScheme = sim.BitFixScheme
	// WilkersonPlain is word-disable without the simple-wdis supplement;
	// it reports a yield failure on any map with a dead logical slot.
	WilkersonPlain = sim.WilkersonPlain
)

// EvalSchemes returns the schemes of the paper's Figures 10–12.
func EvalSchemes() []Scheme { return sim.EvalSchemes() }

// AllSchemes returns every constructible scheme.
func AllSchemes() []Scheme { return sim.AllSchemes() }

// QuickConfig returns a configuration sized for tests and exploration.
func QuickConfig() Config { return sim.QuickConfig() }

// ReportConfig returns the configuration used to regenerate the paper's
// tables and figures.
func ReportConfig() Config { return sim.ReportConfig() }

// DefaultBackoffConfig returns the back-off controller's default tuning.
func DefaultBackoffConfig() BackoffConfig { return dvfs.DefaultBackoffConfig() }

// NewHierarchy builds an event-driven multicore hierarchy: cores core
// components sharing one banked L2 on a fresh deterministic event
// engine. Equip each core with Hierarchy.SetRig, then drive epochs
// with Hierarchy.RunEpoch.
func NewHierarchy(cfg HierConfig) (*Hierarchy, error) { return hier.New(cfg) }

// DefaultL2Params returns the shared L2's default geometry clocked at
// the given operating point.
func DefaultL2Params(op OperatingPoint) L2Params { return hier.DefaultL2Params(op) }

// RunHierarchy executes one event-driven multicore run. The
// single-core configuration with the L2 in the core's clock domain
// reproduces Engine.Run's trace-driven cycle counts within
// sim.CalibrationTolerance (the calibration regression pins this).
func RunHierarchy(ctx context.Context, spec HierSpec) (*HierResult, error) {
	return sim.RunHierarchy(ctx, spec)
}

// RunHierChaos executes one multicore fault-injection campaign: every
// core steered by its own back-off controller on its own voltage
// domain, contending for the shared L2.
func RunHierChaos(ctx context.Context, spec HierChaosSpec) (*HierChaosResult, error) {
	return sim.RunHierChaos(ctx, spec)
}

// OperatingPoints returns the paper's DVFS table (Table II).
func OperatingPoints() []OperatingPoint { return dvfs.OperatingPoints() }

// LowVoltagePoints returns the 560–400 mV region of interest.
func LowVoltagePoints() []OperatingPoint { return dvfs.LowVoltagePoints() }

// Nominal returns the 760 mV baseline operating point.
func Nominal() OperatingPoint { return dvfs.Nominal() }

// Benchmarks returns the evaluation suite's benchmark names.
func Benchmarks() []string { return workload.Names() }

// Profiles returns the synthetic benchmark profiles.
func Profiles() []Profile { return workload.Profiles() }

// ConventionalVccminMV is the Vccmin of the conventional 6T 32 KB cache
// at the paper's 99.9% yield target.
const ConventionalVccminMV = sram.ConventionalVccminMV

// Vccmin computes the minimum voltage (mV) at which a cache array of the
// given size meets the yield target, for the conventional 6T cell.
func Vccmin(arrayBits int, targetYield float64) float64 {
	return sram.NewModel().VccminMV(sram.Cell6T, arrayBits, targetYield)
}

// TableIII returns the static-overhead comparison (area, leakage, extra
// latency) computed by the analytic CACTI-style model.
func TableIII() []cacti.TableIIIRow { return cacti.Default45nm().TableIII() }

// PaperTableIII returns the paper's Table III verbatim for side-by-side
// comparison.
func PaperTableIII() []cacti.TableIIIRow { return cacti.PaperTableIII() }
