// Package iqolb is a library-level reproduction of Rajwar, Kägi & Goodman,
// "Improving the Throughput of Synchronization by Insertion of Delays"
// (HPCA 2000): Implicit QOLB, a purely hardware queue-based lock built from
// speculation about LL/SC usage and bounded delays of coherence responses.
//
// The package fronts a deterministic execution-driven simulator of a
// bus-based shared-memory multiprocessor (Table 1 of the paper): MIPS-like
// cores interpreting a small ISA, two-level caches, a broadcast MOESI
// snooping protocol over a split-transaction address bus and crossbar data
// network, a banked memory controller, and — the paper's contribution — the
// LPRFO/delayed-response/IQOLB machinery with its lock predictor, held-locks
// table, tear-off copies and queue-retention alternatives, plus an explicit
// QOLB implementation as the comparison primitive.
//
// # Quick start
//
//	res, err := iqolb.RunSpec(iqolb.Spec{
//	    Bench:  "raytrace",
//	    System: "iqolb",
//	    Procs:  32,
//	})
//
// Spec is the one canonical run description: the same struct drives the
// serial RunSpec, the parallel RunSpecs batch runner, the parameter
// sweeps (Sweep with a SweepSpec), and the CLIs. Setting Spec.Trace (or
// Options.Obs for a whole batch) turns on the cycle-accurate
// observability layer: per-lock contention profiles in Result.Obs and a
// Perfetto-loadable trace export.
//
// The same TTS LL/SC software runs under every hardware mode; switching
// System from "tts" to "iqolb" changes only the memory system, which is
// the paper's point. See EXPERIMENTS.md for the reproduced tables and
// figures, and DESIGN.md for the modeling substitutions.
package iqolb

import (
	"iqolb/internal/check"
	"iqolb/internal/coherence"
	"iqolb/internal/core"
	"iqolb/internal/engine"
	"iqolb/internal/experiments"
	"iqolb/internal/faults"
	"iqolb/internal/isa"
	"iqolb/internal/machine"
	"iqolb/internal/mem"
	"iqolb/internal/obs"
	"iqolb/internal/stats"
	"iqolb/internal/synclib"
	"iqolb/internal/trace"
	"iqolb/internal/workload"
)

// Core simulator vocabulary, re-exported for programmatic use.
type (
	// Mode is the hardware synchronization mechanism (Figure 1):
	// baseline, aggressive, delayed, iqolb.
	Mode = core.Mode
	// CoreConfig parameterizes the delay/speculation policy.
	CoreConfig = core.Config
	// Timing carries the Table 1 latency parameters.
	Timing = coherence.Timing
	// CacheGeometry carries the Table 1 cache organizations.
	CacheGeometry = coherence.CacheGeometry
	// MachineConfig describes a whole simulated machine.
	MachineConfig = machine.Config
	// Machine is an assembled system, able to run one program.
	Machine = machine.Machine
	// MachineResult is a completed run's raw measurements.
	MachineResult = machine.Result
	// MachineStats aggregates the memory-system counters of a run.
	MachineStats = stats.Machine
	// Program is an assembled program in the simulated ISA.
	Program = isa.Program
	// Builder constructs programs programmatically.
	Builder = isa.Builder
	// Addr is a byte address in the simulated shared memory.
	Addr = mem.Addr
	// Time is a cycle count.
	Time = engine.Time
	// Primitive names a software lock implementation.
	Primitive = synclib.Primitive
	// System pairs a software primitive with a hardware mode.
	System = experiments.System
	// WorkloadParams is a kernel's synchronization signature.
	WorkloadParams = workload.Params
	// BenchmarkSpec is a named Table 2 benchmark.
	BenchmarkSpec = workload.Spec
	// Recorder captures coherence-message traces (Figures 2–4).
	Recorder = trace.Recorder
	// Result is one experiment's summarized measurements.
	Result = experiments.Result
	// Spec canonically describes one simulation job.
	// Every entry point — serial RunSpec, batched RunSpecs, and the CLIs
	// — flows through it; Spec.Trace turns on the observability layer.
	Spec = experiments.Spec
	// Options configures a RunSpecs batch (worker count, run artifacts,
	// progress stream, batch-wide tracing via Options.Obs). The zero
	// value runs on runtime.NumCPU() workers with artifacts off.
	Options = experiments.Options
	// Manifest is a batch's aggregate run artifact.
	Manifest = experiments.Manifest
	// TraceOptions enables the observability layer for one Spec (see
	// Spec.Trace): metrics snapshot collection plus an optional Perfetto
	// (Chrome trace-event JSON) export.
	TraceOptions = experiments.TraceOptions
	// Snapshot is the observability layer's end-of-run metrics summary:
	// per-lock contention profiles (hold-time, hand-off and wait
	// histograms; fairness), bus occupancy maxima, barrier spans.
	Snapshot = obs.Snapshot
	// LockProfile is one lock's contention profile within a Snapshot.
	LockProfile = obs.LockProfile
	// SweepSpec canonically describes one parameter sweep for Sweep.
	SweepSpec = experiments.SweepSpec
	// SweepKind selects which study a SweepSpec runs.
	SweepKind = experiments.SweepKind
	// SweepSpecError pinpoints the unusable field of a rejected
	// SweepSpec; it unwraps to ErrInvalidSweepSpec.
	SweepSpecError = experiments.SweepSpecError
	// FaultPlan arms a deterministic fault-injection plan on a Spec or
	// MachineConfig (nil = clean run).
	FaultPlan = faults.Plan
	// FaultKind names one injectable fault (see FaultKinds).
	FaultKind = faults.Kind
	// DeadlockError is the typed diagnosis of a run whose event queue
	// drained with processors still unhalted; it carries a
	// per-processor stall dump and unwraps to ErrDeadlock.
	DeadlockError = machine.DeadlockError
	// ViolationError is the typed diagnosis of a run whose invariant
	// monitor recorded breaches; it unwraps to ErrProtocolViolation.
	ViolationError = check.ViolationError
	// CampaignConfig parameterizes RunCampaign.
	CampaignConfig = experiments.CampaignConfig
	// CampaignReport is a fault campaign's deterministic aggregate.
	CampaignReport = experiments.CampaignReport
	// FaultOutcome is one (kind, seed) campaign run's classified result.
	FaultOutcome = experiments.FaultOutcome
)

// ErrCycleLimit marks a simulation aborted at the engine's cycle limit;
// its measurements would be truncated. Detect it with errors.Is.
var ErrCycleLimit = experiments.ErrCycleLimit

// ErrInvalidSweepSpec is the sentinel wrapped by every SweepSpec
// validation failure. Detect it with errors.Is.
var ErrInvalidSweepSpec = experiments.ErrInvalidSweepSpec

// ErrDeadlock marks a run whose event queue drained before every
// processor halted; the concrete error is a *DeadlockError. Detect it
// with errors.Is.
var ErrDeadlock = machine.ErrDeadlock

// ErrProtocolViolation marks a run failed by the invariant monitors;
// the concrete error is a *ViolationError. Detect it with errors.Is.
var ErrProtocolViolation = check.ErrProtocolViolation

// FaultKinds lists every injectable fault kind.
func FaultKinds() []FaultKind { return faults.Kinds() }

// ParseFaultKinds parses a comma-separated fault-kind list ("all" or
// "*" selects every kind; "" selects none).
func ParseFaultKinds(s string) ([]FaultKind, error) { return faults.ParseKinds(s) }

// RunCampaign sweeps the configured fault kinds and seeds over the base
// spec, classifying each run against a clean reference: recovered,
// absorbed, or a typed diagnosis. Same spec + config → byte-identical
// report.
func RunCampaign(base Spec, c CampaignConfig) (*CampaignReport, error) {
	return experiments.RunCampaign(base, c)
}

// The sweep studies selectable through SweepSpec.Kind.
const (
	SweepScalingKind     = experiments.SweepScalingKind
	SweepTimeoutKind     = experiments.SweepTimeoutKind
	SweepRetentionKind   = experiments.SweepRetentionKind
	SweepCollocationKind = experiments.SweepCollocationKind
	SweepPredictorKind   = experiments.SweepPredictorKind
	SweepGeneralizedKind = experiments.SweepGeneralizedKind
)

// Hardware modes (the Figure 1 progression).
const (
	ModeBaseline   = core.ModeBaseline
	ModeAggressive = core.ModeAggressive
	ModeDelayed    = core.ModeDelayed
	ModeIQOLB      = core.ModeIQOLB
)

// Software lock primitives.
const (
	PrimTTS    = synclib.PrimTTS
	PrimQOLB   = synclib.PrimQOLB
	PrimTicket = synclib.PrimTicket
	PrimMCS    = synclib.PrimMCS
)

// The evaluated systems. SystemTTS, SystemDelayed and SystemIQOLB run
// byte-identical software.
var (
	SystemTTS          = experiments.SysTTS
	SystemAggressive   = experiments.SysAggressive
	SystemDelayed      = experiments.SysDelayed
	SystemDelayedNoRet = experiments.SysDelayedNoRet
	SystemIQOLB        = experiments.SysIQOLB
	SystemIQOLBNoRet   = experiments.SysIQOLBNoRet
	SystemGeneralized  = experiments.SysGeneralized
	SystemQOLB         = experiments.SysQOLB
	SystemTicket       = experiments.SysTicket
	SystemMCS          = experiments.SysMCS
)

// Systems lists every available system configuration.
func Systems() []System { return experiments.Systems() }

// SystemByName resolves a system by its CLI name.
func SystemByName(name string) (System, error) { return experiments.SystemByName(name) }

// Benchmarks returns the Table 2 benchmark set.
func Benchmarks() []BenchmarkSpec { return workload.Specs() }

// Microbenchmarks returns the additional kernels used by the sweeps.
func Microbenchmarks() []BenchmarkSpec { return workload.MicroSpecs() }

// BenchmarkByName resolves a benchmark or microbenchmark.
func BenchmarkByName(name string) (BenchmarkSpec, error) { return workload.ByName(name) }

// DefaultMachineConfig returns the paper's Table 1 machine for n
// processors under the given hardware mode.
func DefaultMachineConfig(n int, mode Mode) MachineConfig {
	return machine.DefaultConfig(n, mode)
}

// NewMachine assembles a machine that runs prog on every processor
// (programs branch on the CPUID instruction to differentiate roles).
// rec may be nil.
func NewMachine(cfg MachineConfig, prog *Program, rec *Recorder) (*Machine, error) {
	return machine.New(cfg, prog, rec)
}

// Assemble parses assembler text into a Program (see internal/isa for the
// syntax: a MIPS-like ISA with ll/sc, swap, enqolb/deqolb, work and bar).
func Assemble(src string) (*Program, error) { return isa.Assemble(src) }

// NewBuilder starts a programmatic program builder.
func NewBuilder() *Builder { return isa.NewBuilder() }

// RunParams executes a custom synchronization signature under a system.
func RunParams(name string, p WorkloadParams, sys System, procs int) (Result, error) {
	return experiments.RunParams(name, p, sys, procs, nil)
}

// RunFetchAdd executes the lock-free Fetch&Add kernel (the paper's
// Fetch&Phi case) under a system.
func RunFetchAdd(sys System, procs, totalOps int, think int64) (Result, error) {
	return experiments.RunFetchAdd(sys, procs, totalOps, think)
}

// RunSpec resolves and executes one experiment spec serially.
func RunSpec(s Spec) (Result, error) { return experiments.RunSpec(s) }

// RunSpecs executes a batch of experiment specs: jobs fan out across a
// bounded worker pool and the results come back in spec order
// (independent of completion order). The manifest carries per-job wall
// times, sim-cycle counts and lock hand-off latency percentiles.
func RunSpecs(opt Options, specs []Spec) ([]Result, *Manifest, error) {
	return experiments.RunSpecs(opt, specs)
}

// Table1 renders the configured system parameters (paper Table 1).
func Table1() string { return experiments.Table1() }

// Table2 renders the benchmark inventory (paper Table 2).
func Table2() string { return experiments.Table2() }

// Table3 reproduces the paper's results table at the given machine size
// across a bounded worker pool, returning the rendered table and the raw
// rows. Options{} runs on runtime.NumCPU() workers.
func Table3(opt Options, procs, scaleFactor int) (string, []experiments.Table3Row, error) {
	return experiments.Table3(opt, procs, scaleFactor)
}

// Figure1 runs the Figure 1 design-space progression on a hot lock.
func Figure1(opt Options, procs, totalCS int) (string, []Result, error) {
	return experiments.Figure1(opt, procs, totalCS)
}

// Figure2 renders the traditional LL/SC message sequence (paper Figure 2).
func Figure2() (string, *Recorder, error) { return experiments.Figure2() }

// Figure3 renders the delayed-response sequence (paper Figure 3).
func Figure3() (string, *Recorder, error) { return experiments.Figure3() }

// Figure4 renders the IQOLB sequence (paper Figure 4).
func Figure4() (string, *Recorder, error) { return experiments.Figure4() }

// Sweep validates the spec and runs the selected parameter study across
// a bounded worker pool, returning the rendered table. Validation
// failures wrap ErrInvalidSweepSpec and carry field detail in a
// *SweepSpecError. This is the single sweep entry point.
func Sweep(opt Options, s SweepSpec) (string, error) {
	return experiments.Sweep(opt, s)
}

// SweepKinds lists every sweep study in a stable order.
func SweepKinds() []SweepKind { return experiments.SweepKinds() }
