// Package workload generates the benchmark kernels of the evaluation.
//
// The paper runs five SPLASH-2 applications (Table 2). As documented in
// DESIGN.md, this reproduction substitutes synthetic kernels that replicate
// each application's *synchronization signature* — the number of locks, the
// contention distribution over them, critical-section length, the
// compute-to-synchronization ratio, and barrier frequency — because Table 3
// measures sensitivity to lock-primitive performance, and that sensitivity
// is a function of the signature rather than of the numerical kernels.
//
// Every kernel increments a per-lock protected counter inside each critical
// section, so each run doubles as an end-to-end mutual-exclusion check: the
// counters must sum to the total number of critical sections executed.
package workload

import (
	"fmt"

	"iqolb/internal/isa"
	"iqolb/internal/mem"
	"iqolb/internal/synclib"
)

// Memory-layout bases. Each lock and each protected-data block occupies a
// full cache line; per-CPU private arrays are 64 KB apart.
const (
	LockBase    mem.Addr = 0x10_0000
	DataBase    mem.Addr = 0x20_0000
	QNodeBase   mem.Addr = 0x30_0000
	PrivateBase mem.Addr = 0x100_0000
	// PrivateStep spaces per-CPU private regions; PrivateWindow is the
	// streaming wrap size (must exceed the 512-KB L2 so streamed touches
	// keep missing).
	PrivateStep   = 0x10_0000
	PrivateWindow = 0x10_0000
)

// Params is the synchronization signature of a kernel.
type Params struct {
	// Iterations is the number of barrier-separated phases.
	Iterations int
	// TotalCS is the number of critical sections executed per iteration
	// across all processors (divided evenly; must be divisible by the
	// processor count).
	TotalCS int
	// Locks is the number of distinct locks.
	Locks int
	// HotPct is the percentage (0–100) of acquisitions that target lock
	// zero; the remainder spread uniformly over all locks. 100 with
	// Locks==1 models a single hot task-queue lock.
	HotPct int
	// CSWork is the computation inside the critical section, in cycles.
	CSWork int64
	// CSWrites is the number of protected-counter increments per critical
	// section (default 1), spread across CSWork — multi-write sections
	// expose mid-section interference from readers, the Generalized IQOLB
	// target. The counters then sum to Iterations*TotalCS*CSWrites.
	CSWrites int
	// ThinkWork is the private computation between critical sections.
	ThinkWork int64
	// ThinkJitter adds uniform random [0, ThinkJitter) cycles to each
	// think period.
	ThinkJitter int64
	// PrivateLines touches this many private cache lines per think
	// period (realistic background cache traffic).
	PrivateLines int
	// PrivateStream makes the private-array pointer advance persistently
	// through a window larger than the L2 (wrapping), so every touch is
	// a capacity miss: the memory-bandwidth-bound behaviour of the big
	// SPLASH-2 grids. Off, the same lines are re-touched and hit.
	PrivateStream bool
	// BarriersPerIter adds extra barrier episodes per iteration beyond
	// the phase-ending one.
	BarriersPerIter int
	// Collocate places the protected counter in the lock's own cache
	// line (the QOLB collocation optimization; off for Table 3).
	Collocate bool
	// LocksPerLine packs several locks into one cache line (false
	// sharing), which makes independent lock holders write each other's
	// delayed lines — the stressor for the queue-retention vs. breakdown
	// study. Zero or one means one lock per line.
	LocksPerLine int

	// PollProcs dedicates the highest-numbered processors to polling the
	// protected data with plain loads instead of running critical
	// sections — the reader population that motivates Generalized IQOLB
	// (§6): under plain modes their reads downgrade the writer's line
	// every section. TotalCS then divides over the remaining workers.
	PollProcs int
	// PollReads is each poller's read count per iteration.
	PollReads int
	// PollThink is the pollers' pause between reads, in cycles.
	PollThink int64
}

// Validate rejects unusable signatures.
func (p Params) Validate() error {
	if p.Iterations < 1 || p.TotalCS < 0 || p.Locks < 1 {
		return fmt.Errorf("workload: bad params %+v", p)
	}
	if p.HotPct < 0 || p.HotPct > 100 {
		return fmt.Errorf("workload: HotPct %d out of range", p.HotPct)
	}
	if p.LocksPerLine > mem.WordsPerLine {
		return fmt.Errorf("workload: %d locks per %d-byte line do not fit", p.LocksPerLine, mem.LineSize)
	}
	if p.Collocate && p.LocksPerLine > 1 {
		return fmt.Errorf("workload: collocation and packed locks conflict on the lock line")
	}
	return nil
}

func (p Params) csWrites() int {
	if p.CSWrites < 1 {
		return 1
	}
	return p.CSWrites
}

func (p Params) locksPerLine() int {
	if p.LocksPerLine < 1 {
		return 1
	}
	return p.LocksPerLine
}

// LockAddr returns the address of lock i under this signature's layout.
func (p Params) LockAddr(i int) mem.Addr {
	l := p.locksPerLine()
	return LockBase + mem.Addr(i/l)*mem.LineSize + mem.Addr(i%l)*mem.WordSize
}

// DataAddr returns the protected counter's address for lock i.
func (p Params) DataAddr(i int) mem.Addr {
	if p.Collocate {
		return p.LockAddr(i) + mem.WordSize
	}
	return DataBase + mem.Addr(i)*mem.LineSize
}

// Build is a ready-to-run kernel.
type Build struct {
	Program *isa.Program
	// Locks lists every lock address (registered with the fabric for
	// hand-off statistics).
	Locks []mem.Addr
	// ExpectedCS is the total critical-section count the protected
	// counters must sum to after the run.
	ExpectedCS uint64
}

// Generate emits the kernel for the given primitive and processor count.
func Generate(p Params, prim synclib.Primitive, procs int) (*Build, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if procs < 1 {
		return nil, fmt.Errorf("workload: procs = %d", procs)
	}
	workers := procs - p.PollProcs
	if p.PollProcs < 0 || workers < 1 {
		return nil, fmt.Errorf("workload: %d pollers leave no workers among %d processors", p.PollProcs, procs)
	}
	if p.TotalCS%workers != 0 {
		return nil, fmt.Errorf("workload: TotalCS %d not divisible by %d workers", p.TotalCS, workers)
	}
	lk, err := synclib.New(prim, uint64(QNodeBase))
	if err != nil {
		return nil, err
	}
	if prim == synclib.PrimTicket && (p.Collocate || p.locksPerLine() > 1) {
		return nil, fmt.Errorf("workload: ticket lock uses word 1 after the lock word; collocation/packing unsupported")
	}

	csPerProc := p.TotalCS / workers
	b := isa.NewBuilder()

	// Register map (callee-saved, stable across the whole kernel):
	//   s0 iteration counter     s1 iteration bound
	//   s2 CS counter            s3 CS bound
	//   s4 private array cursor  s5 chosen lock index
	//   s7 private array base    a2 lock base      a3 data base
	b.Li(isa.S1, int64(p.Iterations)).
		Li(isa.S3, int64(csPerProc)).
		Li(isa.A2, int64(LockBase)).
		Li(isa.A3, int64(DataBase)).
		Cpuid(isa.T0).
		Li(isa.S7, int64(PrivateBase)).
		Li(isa.T1, PrivateStep).
		Mul(isa.T0, isa.T0, isa.T1).
		Add(isa.S7, isa.S7, isa.T0).
		Mov(isa.S4, isa.S7).
		Li(isa.S0, 0)
	const roleReg = isa.Reg(24) // 1 = worker, 0 = poller
	if p.PollProcs > 0 {
		b.Cpuid(isa.T0).
			Li(isa.T1, int64(workers)).
			Slt(roleReg, isa.T0, isa.T1)
	}

	b.Label("iter")
	b.Li(isa.S2, 0)
	if p.PollProcs > 0 {
		b.Beq(roleReg, isa.R0, "poll")
	}
	if csPerProc > 0 {
		b.Label("cs")

		// --- think: private compute plus background cache traffic ---
		if p.ThinkWork > 0 {
			b.Work(p.ThinkWork)
		}
		if p.ThinkJitter > 0 {
			b.Rand(isa.T0, p.ThinkJitter).
				Workr(isa.T0)
		}
		if p.PrivateLines > 0 {
			l := b.Scope("touch")
			if p.PrivateStream {
				// Advance the persistent cursor; wrap past the window.
				b.Li(isa.T6, int64(p.PrivateLines)).
					Label(l("loop")).
					Lw(isa.T7, 0, isa.S4).
					Addi(isa.T7, isa.T7, 1).
					Sw(isa.T7, 0, isa.S4).
					Addi(isa.S4, isa.S4, mem.LineSize).
					Addi(isa.T6, isa.T6, -1).
					Bne(isa.T6, isa.R0, l("loop")).
					Addi(isa.T5, isa.S7, PrivateWindow).
					Blt(isa.S4, isa.T5, l("nowrap")).
					Mov(isa.S4, isa.S7).
					Label(l("nowrap"))
			} else {
				b.Mov(isa.T5, isa.S7).
					Li(isa.T6, int64(p.PrivateLines)).
					Label(l("loop")).
					Lw(isa.T7, 0, isa.T5).
					Addi(isa.T7, isa.T7, 1).
					Sw(isa.T7, 0, isa.T5).
					Addi(isa.T5, isa.T5, mem.LineSize).
					Addi(isa.T6, isa.T6, -1).
					Bne(isa.T6, isa.R0, l("loop"))
			}
		}

		// --- choose a lock (s5 = index) ---
		emitLockChoice(b, p)

		// a0 = lock address, a1 = protected data address.
		if lpl := p.locksPerLine(); lpl == 1 {
			b.Sll(isa.T0, isa.S5, 6).
				Add(isa.A0, isa.A2, isa.T0)
		} else {
			b.Li(isa.T1, int64(lpl)).
				Div(isa.T0, isa.S5, isa.T1). // line index
				Rem(isa.T2, isa.S5, isa.T1). // slot within line
				Sll(isa.T0, isa.T0, 6).
				Sll(isa.T2, isa.T2, 3).
				Add(isa.A0, isa.A2, isa.T0).
				Add(isa.A0, isa.A0, isa.T2)
		}
		if p.Collocate {
			b.Addi(isa.A1, isa.A0, mem.WordSize)
		} else {
			b.Sll(isa.T0, isa.S5, 6).
				Add(isa.A1, isa.A3, isa.T0)
		}

		// --- critical section ---
		lk.Acquire(b, isa.A0)
		writes := p.csWrites()
		slice := p.CSWork / int64(writes)
		for w := 0; w < writes; w++ {
			b.Lw(isa.T4, 0, isa.A1).
				Addi(isa.T4, isa.T4, 1).
				Sw(isa.T4, 0, isa.A1)
			if slice > 0 {
				b.Work(slice)
			}
		}
		lk.Release(b, isa.A0)

		b.Addi(isa.S2, isa.S2, 1).
			Blt(isa.S2, isa.S3, "cs")
	}
	if p.PollProcs > 0 {
		// Pollers read the protected data with plain loads — the reader
		// population whose GETS traffic Generalized IQOLB answers with
		// tear-offs instead of downgrading the writer.
		b.J("join").
			Label("poll").
			Li(isa.T6, int64(p.PollReads))
		if p.PollReads > 0 {
			b.Label("pollloop")
			emitLockChoice(b, p)
			if p.Collocate {
				// Poll the lock line's data word.
				b.Sll(isa.T0, isa.S5, 6).
					Add(isa.T5, isa.A2, isa.T0).
					Addi(isa.T5, isa.T5, mem.WordSize)
			} else {
				b.Sll(isa.T0, isa.S5, 6).
					Add(isa.T5, isa.A3, isa.T0)
			}
			b.Lw(isa.T7, 0, isa.T5)
			if p.PollThink > 0 {
				b.Work(p.PollThink)
			}
			b.Addi(isa.T6, isa.T6, -1).
				Bne(isa.T6, isa.R0, "pollloop")
		}
		b.Label("join")
	}

	// --- barriers ---
	// Episode ids pack (iteration implicit via reuse, site index explicit):
	// reusing an id across iterations is safe because an episode only
	// releases when all processors arrive.
	for extra := 0; extra < p.BarriersPerIter; extra++ {
		b.Bar(int64(2 + extra))
	}
	b.Bar(1)

	b.Addi(isa.S0, isa.S0, 1).
		Blt(isa.S0, isa.S1, "iter").
		Halt()

	prog, err := b.Build()
	if err != nil {
		return nil, err
	}
	locks := make([]mem.Addr, p.Locks)
	for i := range locks {
		locks[i] = p.LockAddr(i)
	}
	return &Build{
		Program:    prog,
		Locks:      locks,
		ExpectedCS: uint64(p.Iterations) * uint64(p.TotalCS) * uint64(p.csWrites()),
	}, nil
}

// PickLock chooses a lock (or resource) index from the signature's
// contention distribution: HotPct of choices hit index zero, the rest
// spread uniformly. rand must return a uniform value in [0, n). The
// draw sequence (at most two draws) is fixed, so seeded callers replay
// identically; it deliberately mirrors emitLockChoice, so the service
// load generator samples the same distribution as the simulator.
func (p Params) PickLock(rand func(n int64) int64) int {
	switch {
	case p.Locks == 1 || p.HotPct >= 100:
		return 0
	case p.HotPct == 0:
		return int(rand(int64(p.Locks)))
	default:
		if rand(100) < int64(p.HotPct) {
			return 0
		}
		return int(rand(int64(p.Locks)))
	}
}

// emitLockChoice leaves the chosen lock index in S5.
func emitLockChoice(b *isa.Builder, p Params) {
	switch {
	case p.Locks == 1:
		b.Li(isa.S5, 0)
	case p.HotPct == 0:
		b.Rand(isa.S5, int64(p.Locks))
	case p.HotPct >= 100:
		b.Li(isa.S5, 0)
	default:
		l := b.Scope("pick")
		b.Rand(isa.T0, 100).
			Li(isa.S5, 0).
			Slti(isa.T1, isa.T0, int64(p.HotPct)).
			Bne(isa.T1, isa.R0, l("done")).
			Rand(isa.S5, int64(p.Locks)).
			Label(l("done"))
	}
}

// VerifyCounters checks that the protected counters account for every
// critical section executed — the end-to-end mutual-exclusion invariant.
func (bld *Build) VerifyCounters(p Params, peek func(mem.Addr) uint64) error {
	var sum uint64
	for i := 0; i < p.Locks; i++ {
		sum += peek(p.DataAddr(i))
	}
	if sum != bld.ExpectedCS {
		return fmt.Errorf("workload: protected counters sum to %d, want %d (mutual exclusion violated or work lost)",
			sum, bld.ExpectedCS)
	}
	return nil
}
