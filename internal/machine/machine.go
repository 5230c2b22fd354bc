// Package machine assembles a complete simulated multiprocessor: N
// processor cores (package proc) over per-node cache controllers, the
// broadcast address bus, crossbar data network and memory controller
// (package coherence), plus the hardware barrier used by the workload
// kernels. One Machine runs one program to completion and yields a Result.
package machine

import (
	"fmt"

	"iqolb/internal/coherence"
	"iqolb/internal/core"
	"iqolb/internal/engine"
	"iqolb/internal/faults"
	"iqolb/internal/interconnect"
	"iqolb/internal/isa"
	"iqolb/internal/mem"
	"iqolb/internal/proc"
	"iqolb/internal/stats"
	"iqolb/internal/trace"
)

// Config describes the whole machine (Table 1 defaults plus the hardware
// synchronization mode under study).
type Config struct {
	// Processors is the node count (the paper evaluates 32).
	Processors int
	// IssueWidth approximates the 4-wide core of Table 1.
	IssueWidth int
	// Seed drives the per-processor deterministic RNGs.
	Seed uint64
	// Timing and Caches carry the Table 1 memory-system parameters.
	Timing coherence.Timing
	Caches coherence.CacheGeometry
	// Core selects and parameterizes the synchronization hardware.
	Core core.Config
	// CycleLimit aborts runaway runs (0 = none). Livelock-prone modes
	// (the aggressive baseline) should always set one.
	CycleLimit engine.Time
	// Faults optionally arms a deterministic fault-injection plan
	// (nil = clean run).
	Faults *faults.Plan
}

// DefaultConfig returns the paper's evaluation configuration for n
// processors under the given hardware mode.
func DefaultConfig(n int, mode core.Mode) Config {
	return Config{
		Processors: n,
		IssueWidth: 4,
		Seed:       0x5eed,
		Timing:     coherence.DefaultTiming(),
		Caches:     coherence.DefaultCacheGeometry(),
		Core:       core.DefaultConfig(mode),
		CycleLimit: 2_000_000_000,
	}
}

// Validate rejects impossible configurations.
func (c Config) Validate() error {
	if c.Processors < 1 {
		return fmt.Errorf("machine: need at least one processor")
	}
	if c.IssueWidth < 1 {
		return fmt.Errorf("machine: issue width must be positive")
	}
	if err := c.Timing.Validate(); err != nil {
		return err
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
	}
	if err := c.Core.Validate(); err != nil {
		return err
	}
	return nil
}

// Result summarizes a completed run.
type Result struct {
	// Cycles is the parallel execution time: the cycle at which the last
	// processor halted.
	Cycles uint64
	// HitLimit reports that the run was aborted at Config.CycleLimit.
	HitLimit bool
	// Stats aggregates the memory-system measurements.
	Stats *stats.Machine
	// PerCPU carries per-processor instruction/memory counts.
	PerCPU []CPUStats
}

// CPUStats is the per-processor slice of a Result.
type CPUStats struct {
	Instructions uint64
	MemOps       uint64
	WorkCycles   uint64
	MemCycles    uint64
	SpinResults  uint64
	HaltedAt     uint64
}

// Machine is one assembled system, ready to Run exactly once.
type Machine struct {
	cfg    Config
	eng    *engine.Engine
	fabric *coherence.Fabric
	cpus   []*proc.CPU
	st     *stats.Machine
	rec    *trace.Recorder

	barriers   map[int64][]func()
	barrierObs BarrierObserver
	halted     int
	ran        bool
}

// New builds a machine that will run prog on every processor (programs
// branch on CPUID to differentiate roles). rec may be nil.
func New(cfg Config, prog *isa.Program, rec *trace.Recorder) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	eng := engine.New()
	st := stats.NewMachine(cfg.Processors)
	fabric, err := coherence.NewFabric(eng, cfg.Timing, cfg.Caches, cfg.Core, cfg.Processors, st, rec)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(cfg.Faults)
	if err != nil {
		return nil, err
	}
	fabric.SetFaultInjector(inj)
	if inj.Enabled(faults.BusLatency) {
		fabric.Net().SetPerturb(func(idx uint64, msg interconnect.Msg) engine.Time {
			if !inj.WantsClass(msg.Kind.String()) {
				return 0
			}
			if !inj.Fire(faults.BusLatency, uint64(eng.Now())) {
				return 0
			}
			return engine.Time(inj.ExtraLatency())
		})
	}
	m := &Machine{
		cfg:      cfg,
		eng:      eng,
		fabric:   fabric,
		st:       st,
		rec:      rec,
		barriers: make(map[int64][]func()),
	}
	m.cpus = make([]*proc.CPU, cfg.Processors)
	for i := 0; i < cfg.Processors; i++ {
		m.cpus[i] = proc.New(i, cfg.Processors,
			proc.Config{IssueWidth: cfg.IssueWidth, Seed: cfg.Seed},
			prog, eng, fabric.Node(i), m)
	}
	return m, nil
}

// Fabric exposes the memory system (setup and inspection).
func (m *Machine) Fabric() *coherence.Fabric { return m.fabric }

// Processors reports the configured node count.
func (m *Machine) Processors() int { return m.cfg.Processors }

// Engine exposes the event engine (tests).
func (m *Machine) Engine() *engine.Engine { return m.eng }

// CPU exposes processor i (tests).
func (m *Machine) CPU(i int) *proc.CPU { return m.cpus[i] }

// Poke initializes shared memory before the run.
func (m *Machine) Poke(addr mem.Addr, v uint64) { m.fabric.Memory().Poke(addr, v) }

// Peek reads shared memory after the run. The machine is quiescent then,
// but dirty data may still live in a cache; Peek checks caches first.
func (m *Machine) Peek(addr mem.Addr) uint64 {
	for i := 0; i < m.cfg.Processors; i++ {
		if v, ok := m.fabric.Node(i).PeekWord(addr); ok {
			return v
		}
	}
	return m.fabric.Memory().Peek(addr)
}

// RegisterLockAddr marks a lock address for hand-off statistics.
func (m *Machine) RegisterLockAddr(a mem.Addr) { m.fabric.RegisterLockAddr(a) }

// SetBarrierObserver attaches a barrier-epoch observer (nil detaches).
// Call before Run.
func (m *Machine) SetBarrierObserver(o BarrierObserver) { m.barrierObs = o }

// Barrier implements proc.Platform.
func (m *Machine) Barrier(episode int64, cpu int, release func()) {
	if m.barrierObs != nil {
		m.barrierObs.BarrierArrive(episode, cpu)
	}
	m.barriers[episode] = append(m.barriers[episode], release)
	if len(m.barriers[episode]) == m.cfg.Processors {
		releases := m.barriers[episode]
		delete(m.barriers, episode)
		if m.barrierObs != nil {
			m.barrierObs.BarrierRelease(episode, m.cfg.Processors)
		}
		for _, r := range releases {
			r()
		}
	}
}

// Halted implements proc.Platform: the run ends when every CPU has halted.
func (m *Machine) Halted(cpu int) {
	m.halted++
	if m.halted == m.cfg.Processors {
		m.eng.Halt()
	}
}

// Run executes the program to completion on all processors and returns the
// measurements. A second Run is an error.
func (m *Machine) Run() (Result, error) {
	if m.ran {
		return Result{}, fmt.Errorf("machine: already ran")
	}
	m.ran = true
	for _, c := range m.cpus {
		c.Start()
	}
	end, hitLimit := m.eng.Run(m.cfg.CycleLimit)
	m.fabric.Settle()
	if !hitLimit && m.halted != m.cfg.Processors {
		de := &DeadlockError{
			Cycle:  uint64(end),
			Halted: m.halted,
			Procs:  m.cfg.Processors,
			Stalls: make([]proc.Stall, len(m.cpus)),
		}
		for i, c := range m.cpus {
			de.Stalls[i] = c.Stall()
		}
		return Result{}, de
	}
	m.st.Cycles = uint64(end)
	m.st.BusTransactions = m.fabric.Bus().Transactions
	m.st.BusMaxQueue = m.fabric.Bus().MaxQueue
	m.st.MemReads = m.fabric.Memory().Reads
	m.st.MemWritebacks = m.fabric.Memory().Writebacks
	res := Result{
		Cycles:   uint64(end),
		HitLimit: hitLimit,
		Stats:    m.st,
		PerCPU:   make([]CPUStats, len(m.cpus)),
	}
	for i, c := range m.cpus {
		res.PerCPU[i] = CPUStats{
			Instructions: c.Instructions,
			MemOps:       c.MemOps,
			WorkCycles:   c.WorkCycles,
			MemCycles:    c.MemCycles,
			SpinResults:  c.SpinResults,
			HaltedAt:     uint64(c.HaltedAt),
		}
	}
	return res, nil
}
