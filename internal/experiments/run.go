package experiments

import (
	"fmt"

	"iqolb/internal/check"
	"iqolb/internal/engine"
	"iqolb/internal/faults"
	"iqolb/internal/machine"
	"iqolb/internal/mem"
	"iqolb/internal/obs"
	"iqolb/internal/stats"
	"iqolb/internal/trace"
	"iqolb/internal/workload"
)

// ResultSchemaVersion identifies the serialized Result layout. Bump it
// whenever a Result field is added, removed, or changes meaning; the
// golden-file test under testdata/ pins the current shape.
//
// Version 2: added the fault-campaign fields (Degraded, DegradeReason,
// FaultInjections, FinalCounters).
const ResultSchemaVersion = 2

// Result is one benchmark execution's measurements.
type Result struct {
	SchemaVersion int
	System        string
	Benchmark     string
	Processors    int
	Cycles        uint64
	Stats         *stats.Machine
	// Derived headline metrics.
	BusTransactions uint64
	SCFailureRate   float64
	TearOffs        uint64
	Timeouts        uint64
	Breakdowns      uint64
	LockHandoffMean float64
	// Obs carries the observability snapshot for traced runs (Spec.Trace
	// or Options.Obs); nil otherwise.
	Obs *obs.Snapshot `json:",omitempty"`
	// Fault-campaign observables, populated only when the run carried a
	// fault plan (Spec.Faults): whether the machine fell back to
	// plain-RFO semantics and why, how many injections fired per fault
	// kind, and the final per-lock data counters (compared against a
	// clean reference run by the campaign's differential check).
	Degraded        bool              `json:",omitempty"`
	DegradeReason   string            `json:",omitempty"`
	FaultInjections map[string]uint64 `json:",omitempty"`
	FinalCounters   []uint64          `json:",omitempty"`
}

func summarize(sysName, benchName string, procs int, res machine.Result) Result {
	st := res.Stats
	return Result{
		SchemaVersion:   ResultSchemaVersion,
		System:          sysName,
		Benchmark:       benchName,
		Processors:      procs,
		Cycles:          res.Cycles,
		Stats:           st,
		BusTransactions: st.BusTransactions,
		SCFailureRate:   st.SCFailureRate(),
		TearOffs:        st.Total(func(n *stats.Node) uint64 { return n.TearOffsOut }),
		Timeouts:        st.Total(func(n *stats.Node) uint64 { return n.DelayTimeouts }),
		Breakdowns:      st.Total(func(n *stats.Node) uint64 { return n.QueueBreakdowns }),
		LockHandoffMean: st.LockHandoff.Mean(),
	}
}

// monitorConfig derives the invariant-monitor configuration for a run
// carrying fault plan fp (nil = the defaults). A degrading plan wires the
// fabric in as the starvation watchdog's recovery hook.
func monitorConfig(m *machine.Machine, fp *faults.Plan) check.Config {
	cfg := check.Config{}
	if fp == nil {
		return cfg
	}
	if fp.StarvationBound > 0 {
		cfg.StarvationBound = engine.Time(fp.StarvationBound)
	}
	if fp.Degrade {
		cfg.Degrader = m.Fabric()
	}
	return cfg
}

// fillFaultOutcome copies a faulted run's observables into the result:
// degradation state, per-kind injection counts, and (when the workload
// has per-lock counters) the final data values for the campaign's
// differential check. p is nil for counterless kernels.
func fillFaultOutcome(m *machine.Machine, p *workload.Params, out *Result) {
	out.Degraded, out.DegradeReason = m.Fabric().Degraded()
	out.FaultInjections = m.Fabric().FaultInjector().Counts()
	if p != nil && p.Locks > 0 {
		out.FinalCounters = make([]uint64, p.Locks)
		for i := 0; i < p.Locks; i++ {
			out.FinalCounters[i] = m.Peek(p.DataAddr(i))
		}
	}
}

// Scale shrinks a benchmark's work (for fast tests and smoke runs): the
// iteration count is kept, the per-iteration critical-section total is
// divided by factor (floored to one per processor).
func Scale(p workload.Params, factor, procs int) workload.Params {
	if factor <= 1 {
		return p
	}
	p.TotalCS /= factor
	if p.TotalCS < procs {
		p.TotalCS = procs
	}
	p.TotalCS -= p.TotalCS % procs
	if p.TotalCS == 0 {
		p.TotalCS = procs
	}
	return p
}

// RunParams executes one kernel under one system and verifies the
// mutual-exclusion counters.
func RunParams(name string, p workload.Params, sys System, procs int, rec *trace.Recorder) (Result, error) {
	bld, err := workload.Generate(p, sys.Primitive, procs)
	if err != nil {
		return Result{}, err
	}
	cfg := sys.MachineConfig(procs)
	m, err := machine.New(cfg, bld.Program, rec)
	if err != nil {
		return Result{}, err
	}
	for _, l := range bld.Locks {
		m.RegisterLockAddr(l)
	}
	res, err := m.Run()
	if err != nil {
		return Result{}, fmt.Errorf("%s/%s/p%d: %w", name, sys.Name, procs, err)
	}
	if res.HitLimit {
		return Result{}, fmt.Errorf("%s/%s/p%d: %w (%d cycles)", name, sys.Name, procs, ErrCycleLimit, cfg.CycleLimit)
	}
	if err := bld.VerifyCounters(p, m.Peek); err != nil {
		return Result{}, fmt.Errorf("%s/%s/p%d: %w", name, sys.Name, procs, err)
	}
	return summarize(sys.Name, name, procs, res), nil
}

// RunBenchmark executes one Table 2 benchmark under one system at the
// given processor count, optionally scaled down by factor.
func RunBenchmark(benchName string, sys System, procs, scaleFactor int) (Result, error) {
	spec, err := workload.ByName(benchName)
	if err != nil {
		return Result{}, err
	}
	p := Scale(spec.Params, scaleFactor, procs)
	return RunParams(spec.Name, p, sys, procs, nil)
}

// RunFetchAdd executes the lock-free Fetch&Add kernel under one system.
func RunFetchAdd(sys System, procs, totalOps int, think int64) (Result, error) {
	return runFetchAdd(sys.MachineConfig(procs), sys, procs, totalOps, think, false, nil)
}

func runFetchAdd(cfg machine.Config, sys System, procs, totalOps int, think int64, checked bool, tr *TraceOptions) (Result, error) {
	totalOps -= totalOps % procs
	if totalOps == 0 {
		totalOps = procs
	}
	bld, err := workload.GenerateFetchAdd(totalOps, think, procs)
	if err != nil {
		return Result{}, err
	}
	return runBuild(cfg, bld, "fetchadd", sys.Name, checked, tr, nil, func(peek Peeker) error {
		return workload.VerifyFetchAdd(uint64(totalOps), peek)
	})
}

// runBuild executes a generated kernel under cfg and checks it: under the
// invariant monitor when checked is set or cfg carries a fault plan, with
// the observability stream collected when tr is non-nil (see
// TraceOptions), and with verify run over the final memory. p, nil for
// counterless kernels, names the per-lock counters a faulted run reports.
func runBuild(cfg machine.Config, bld *workload.Build, name, sysName string, checked bool,
	tr *TraceOptions, p *workload.Params, verify func(Peeker) error) (Result, error) {
	m, err := machine.New(cfg, bld.Program, nil)
	if err != nil {
		return Result{}, err
	}
	for _, l := range bld.Locks {
		m.RegisterLockAddr(l)
	}
	// A fault plan implies the monitors: an injected fault must be
	// either survived or reported, never silently absorbed into wrong
	// measurements.
	fp := cfg.Faults
	var mon *check.Monitor
	if checked || fp != nil {
		mon = check.AttachToMachine(m, monitorConfig(m, fp))
	}
	var log *obs.Log
	if tr != nil {
		log = obs.Attach(m)
	}
	res, err := m.Run()
	// The monitor halts the machine on a violation, which surfaces from
	// Run as a deadlock: report the violation, not the symptom.
	if mon != nil {
		if cerr := mon.Finish(); cerr != nil {
			return Result{}, fmt.Errorf("%s: %w", name, cerr)
		}
	}
	if err == nil && res.HitLimit {
		err = fmt.Errorf("%w (%d cycles)", ErrCycleLimit, cfg.CycleLimit)
	}
	if err == nil {
		err = verify(m.Peek)
	}
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	out := summarize(sysName, name, cfg.Processors, res)
	if fp != nil {
		fillFaultOutcome(m, p, &out)
	}
	if err := finishTrace(log, tr, &out); err != nil {
		return Result{}, fmt.Errorf("%s: %w", name, err)
	}
	return out, nil
}

// Peeker is the post-run memory view used by verification helpers.
type Peeker func(mem.Addr) uint64
