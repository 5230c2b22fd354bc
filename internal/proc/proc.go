// Package proc implements the simulated processor core: an in-order
// interpreter of the isa package's instruction set with a configurable
// issue width for non-memory instructions and blocking memory operations.
//
// The paper simulates a 4-wide out-of-order core; as documented in
// DESIGN.md we substitute an in-order core whose issue width approximates
// the same non-memory throughput. The synchronization mechanisms under
// study live entirely in the memory system, which the core drives through
// the Port interface.
package proc

import (
	"fmt"

	"iqolb/internal/engine"
	"iqolb/internal/isa"
	"iqolb/internal/mem"
)

// Port is the processor's view of its cache controller. Access must fire
// req.Done exactly once, at the operation's completion cycle.
type Port interface {
	Access(req mem.Request)
}

// Watcher is the Port extension that lets a spinning CPU sleep. Watch
// reports whether repeating the load that just completed (kind at addr,
// value v) would be served the same way each time: value v, latency lat,
// from a tear-off copy or not, changing nothing but per-access counters.
// If so it arms a watch, and the first event that could change that
// answer calls wake, once; wake returns how many loads the CPU skipped,
// which the port charges as if they had been made.
type Watcher interface {
	Watch(kind mem.AccessKind, addr mem.Addr, v uint64, wake func() uint64) (lat engine.Time, tearOff, ok bool)
}

// Platform provides the services that live outside the node: the hardware
// barrier and run-completion notification.
type Platform interface {
	// Barrier parks the CPU at the barrier episode; release resumes it.
	Barrier(episode int64, cpu int, release func())
	// Halted reports that the CPU executed HALT.
	Halted(cpu int)
}

// Config parameterizes a CPU.
type Config struct {
	// IssueWidth is the number of consecutive non-memory instructions
	// retired per cycle (Table 1: up to 4 per cycle).
	IssueWidth int
	// Seed initializes the per-CPU deterministic RNG behind OpRand.
	Seed uint64
}

// CPU is one simulated processor.
type CPU struct {
	id     int
	nprocs int
	cfg    Config
	prog   *isa.Program
	eng    *engine.Engine
	port   Port
	plat   Platform

	regs   [isa.NumRegs]uint64
	pc     int
	halted bool
	rng    uint64

	// Handlers bound once in New, so that scheduling the next cycle and
	// completing a memory op (its Request.Done) allocate nothing.
	stepFn engine.Func
	done   mem.DoneFunc

	// The current step began at stepPC and retired stepALU instructions
	// before its memory op; stepDirty records that one of them changed a
	// register or drew a random number. A step that did neither, issuing a
	// load whose result changes nothing either, repeats forever unless the
	// load's line changes: the CPU then sleeps (see sleep).
	stepPC    int
	stepALU   uint64
	stepDirty bool

	// The sleep: parked in the engine at sleepAt (the first skipped step),
	// repeating a load served at sleepLat with value sleepVal, from a
	// tear-off copy if sleepTear.
	watcher   Watcher
	sl        engine.Sleep
	resume    engine.Handler
	wakeFn    func() uint64
	sleepAt   engine.Time
	sleepLat  engine.Time
	sleepVal  uint64
	sleepTear bool

	// The operation the CPU is blocked on, if waiting: the instruction at
	// waitPC (a memory op on waitAddr, or a barrier), issued at waitSince.
	// complete reads the instruction back; Stall formats it, and nothing
	// else does.
	waiting   bool
	waitPC    int
	waitAddr  mem.Addr
	waitSince engine.Time

	// Statistics.
	Instructions uint64
	MemOps       uint64
	WorkCycles   uint64
	MemCycles    uint64 // cycles spent with a memory op outstanding
	SpinResults  uint64 // memory results served from tear-off copies
	HaltedAt     engine.Time
}

// New builds a CPU ready to Start.
func New(id, nprocs int, cfg Config, prog *isa.Program, eng *engine.Engine, port Port, plat Platform) *CPU {
	if cfg.IssueWidth <= 0 {
		cfg.IssueWidth = 1
	}
	seed := cfg.Seed + uint64(id)*0x9e3779b97f4a7c15 + 1
	c := &CPU{id: id, nprocs: nprocs, cfg: cfg, prog: prog, eng: eng, port: port, plat: plat, rng: seed}
	c.stepFn = c.step
	c.done = c.complete
	c.watcher, _ = port.(Watcher)
	c.resume = resumer{c}
	c.wakeFn = c.wake
	return c
}

// ID returns the processor number.
func (c *CPU) ID() int { return c.id }

// Halted reports whether the CPU has executed HALT.
func (c *CPU) Halted() bool { return c.halted }

// Reg exposes a register value (tests).
func (c *CPU) Reg(r isa.Reg) uint64 { return c.regs[r] }

// SetReg seeds a register before Start (tests and workload setup).
func (c *CPU) SetReg(r isa.Reg, v uint64) {
	if r != isa.R0 {
		c.regs[r] = v
	}
}

// PC exposes the current instruction index (tests).
func (c *CPU) PC() int { return c.pc }

// Stall is one processor's entry in a deadlock dump: where it stopped
// and what, if anything, it is still waiting on.
type Stall struct {
	// CPU is the processor number; PC the instruction index it stopped at.
	CPU int `json:"cpu"`
	PC  int `json:"pc"`
	// Halted is true when the CPU executed HALT normally (it is not part
	// of the deadlock, only of the dump's context).
	Halted bool `json:"halted,omitempty"`
	// Waiting describes the blocking operation ("sc 0x40", "barrier 2"),
	// empty when the CPU is between operations.
	Waiting string `json:"waiting,omitempty"`
	// Since is the cycle the blocking operation was issued.
	Since uint64 `json:"since,omitempty"`
}

// Stall snapshots the CPU's blocking state (deadlock diagnosis; the
// machine is quiescent when this is called).
func (c *CPU) Stall() Stall {
	s := Stall{CPU: c.id, PC: c.pc, Halted: c.halted, Since: uint64(c.waitSince)}
	if c.waiting {
		if in := c.prog.Code[c.waitPC]; in.Op == isa.OpBar {
			s.Waiting = fmt.Sprintf("barrier %d", in.Imm)
		} else {
			s.Waiting = fmt.Sprintf("%s %#x", in.Op, uint64(c.waitAddr))
		}
	}
	return s
}

// Start schedules the first cycle.
func (c *CPU) Start() {
	c.eng.After(0, c.stepFn)
}

func (c *CPU) nextRand(bound int64) uint64 {
	// xorshift64*: deterministic, fast, stdlib-free.
	x := c.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	c.rng = x
	return (x * 0x2545f4914f6cdd1d) >> 1 % uint64(bound)
}

func (c *CPU) write(r isa.Reg, v uint64) {
	if r != isa.R0 && c.regs[r] != v {
		c.regs[r] = v
		c.stepDirty = true
	}
}

// step executes one cycle: up to IssueWidth non-memory instructions, or
// begins one memory / long-latency operation.
func (c *CPU) step(now engine.Time) {
	if c.halted {
		return
	}
	c.stepPC, c.stepALU, c.stepDirty = c.pc, 0, false
	for slots := c.cfg.IssueWidth; slots > 0; slots-- {
		in := c.prog.Code[c.pc]
		if in.Op.IsMemory() {
			c.issueMem(in, now)
			return
		}
		switch in.Op {
		case isa.OpWork:
			c.Instructions++
			c.WorkCycles += uint64(in.Imm)
			c.pc++
			c.eng.At(now+engine.Time(in.Imm)+1, c.stepFn)
			return
		case isa.OpWorkr:
			c.Instructions++
			d := c.regs[in.Rs]
			c.WorkCycles += d
			c.pc++
			c.eng.At(now+engine.Time(d)+1, c.stepFn)
			return
		case isa.OpBar:
			c.Instructions++
			c.waiting, c.waitPC, c.waitSince = true, c.pc, now
			c.pc++
			c.plat.Barrier(in.Imm, c.id, c.leaveBarrier)
			return
		case isa.OpHalt:
			c.Instructions++
			c.halted = true
			c.HaltedAt = now
			c.plat.Halted(c.id)
			return
		default:
			if in.Op == isa.OpRand {
				c.stepDirty = true
			}
			c.execALU(in)
			c.stepALU++
		}
	}
	c.eng.At(now+1, c.stepFn)
}

// leaveBarrier is the CPU's barrier release: it resumes the next cycle.
func (c *CPU) leaveBarrier() {
	c.waiting = false
	c.eng.After(1, c.stepFn)
}

func (c *CPU) execALU(in isa.Instr) {
	c.Instructions++
	rs, rt := c.regs[in.Rs], c.regs[in.Rt]
	switch in.Op {
	case isa.OpNop:
	case isa.OpAdd:
		c.write(in.Rd, rs+rt)
	case isa.OpSub:
		c.write(in.Rd, rs-rt)
	case isa.OpMul:
		c.write(in.Rd, rs*rt)
	case isa.OpDiv:
		if rt == 0 {
			c.write(in.Rd, 0)
		} else {
			c.write(in.Rd, uint64(int64(rs)/int64(rt)))
		}
	case isa.OpRem:
		if rt == 0 {
			c.write(in.Rd, 0)
		} else {
			c.write(in.Rd, uint64(int64(rs)%int64(rt)))
		}
	case isa.OpAnd:
		c.write(in.Rd, rs&rt)
	case isa.OpOr:
		c.write(in.Rd, rs|rt)
	case isa.OpXor:
		c.write(in.Rd, rs^rt)
	case isa.OpSlt:
		if int64(rs) < int64(rt) {
			c.write(in.Rd, 1)
		} else {
			c.write(in.Rd, 0)
		}
	case isa.OpAddi:
		c.write(in.Rd, rs+uint64(in.Imm))
	case isa.OpAndi:
		c.write(in.Rd, rs&uint64(in.Imm))
	case isa.OpOri:
		c.write(in.Rd, rs|uint64(in.Imm))
	case isa.OpSlti:
		if int64(rs) < in.Imm {
			c.write(in.Rd, 1)
		} else {
			c.write(in.Rd, 0)
		}
	case isa.OpSll:
		c.write(in.Rd, rs<<uint64(in.Imm))
	case isa.OpSrl:
		c.write(in.Rd, rs>>uint64(in.Imm))
	case isa.OpBeq:
		if rs == rt {
			c.pc = in.Target
			return
		}
	case isa.OpBne:
		if rs != rt {
			c.pc = in.Target
			return
		}
	case isa.OpBlt:
		if int64(rs) < int64(rt) {
			c.pc = in.Target
			return
		}
	case isa.OpBge:
		if int64(rs) >= int64(rt) {
			c.pc = in.Target
			return
		}
	case isa.OpJ:
		c.pc = in.Target
		return
	case isa.OpJal:
		c.write(isa.LR, uint64(c.pc+1))
		c.pc = in.Target
		return
	case isa.OpJr:
		c.pc = int(rs)
		return
	case isa.OpRand:
		c.write(in.Rd, c.nextRand(in.Imm))
	case isa.OpCpuid:
		c.write(in.Rd, uint64(c.id))
	case isa.OpProcs:
		c.write(in.Rd, uint64(c.nprocs))
	default:
		panic(fmt.Sprintf("proc: P%d pc %d: unhandled opcode %s", c.id, c.pc, in.Op))
	}
	c.pc++
}

func (c *CPU) issueMem(in isa.Instr, now engine.Time) {
	c.Instructions++
	c.MemOps++
	addr := mem.Addr(c.regs[in.Rs] + uint64(in.Imm))
	if !addr.Aligned() {
		panic(fmt.Sprintf("proc: P%d pc %d (%s): unaligned address %#x", c.id, c.pc, in.Op, uint64(addr)))
	}
	var kind mem.AccessKind
	var value uint64
	switch in.Op {
	case isa.OpLw:
		kind = mem.Load
	case isa.OpSw:
		kind, value = mem.Store, c.regs[in.Rt]
	case isa.OpLl:
		kind = mem.LoadLinked
	case isa.OpSc:
		kind, value = mem.StoreCond, c.regs[in.Rt]
	case isa.OpSwap:
		kind, value = mem.SwapOp, c.regs[in.Rt]
	case isa.OpEnqolb:
		kind = mem.EnqolbOp
	case isa.OpDeqolb:
		kind = mem.DeqolbOp
	default:
		panic(fmt.Sprintf("proc: non-memory op %s in issueMem", in.Op))
	}
	pc := c.pc
	c.pc++
	c.waiting, c.waitPC, c.waitAddr, c.waitSince = true, pc, addr, now
	c.port.Access(mem.Request{Kind: kind, Addr: addr, Value: value, PC: pc, Done: c.done})
}

// complete is the CPU's Request.Done: it retires the outstanding memory
// instruction with its result and resumes the next cycle.
func (c *CPU) complete(res mem.Result) {
	in := &c.prog.Code[c.waitPC]
	now := c.eng.Now()
	c.waiting = false
	c.MemCycles += uint64(now - c.waitSince)
	if res.TearOff {
		c.SpinResults++
	}
	switch in.Op {
	case isa.OpLw, isa.OpLl:
		// A fixed point: the step that issued this load began right after
		// it and changed no register, and neither does the result. The
		// next step is then this one again.
		spin := !c.stepDirty && c.stepPC == c.waitPC+1 &&
			(in.Rd == isa.R0 || c.regs[in.Rd] == res.Value)
		c.write(in.Rd, res.Value)
		if spin && c.sleep(in, res.Value, now) {
			return
		}
	case isa.OpEnqolb:
		c.write(in.Rd, res.Value)
	case isa.OpSc:
		if res.OK {
			c.write(in.Rt, 1)
		} else {
			c.write(in.Rt, 0)
		}
	case isa.OpSwap:
		c.write(in.Rt, res.Value)
	}
	c.eng.After(1, c.stepFn)
}

// sleep parks the CPU at a spin fixed point instead of scheduling its next
// step, if its port can watch the load's line (the watch refuses a line a
// trace recorder wants, since a recorder sees every spin). The engine
// passes the slots of the steps and completions the CPU would have
// dispatched, in their exact places; the watch's wake charges them, and
// the next slot then dispatches for real.
func (c *CPU) sleep(in *isa.Instr, v uint64, now engine.Time) bool {
	if c.watcher == nil {
		return false
	}
	kind := mem.Load
	if in.Op == isa.OpLl {
		kind = mem.LoadLinked
	}
	lat, tear, ok := c.watcher.Watch(kind, c.waitAddr, v, c.wakeFn)
	if !ok {
		return false
	}
	c.sleepAt, c.sleepLat, c.sleepVal, c.sleepTear = now+1, lat, v, tear
	c.eng.Park(&c.sl, now+1, [2]engine.Time{lat, 1}, c.resume)
	return true
}

// wake ends the sleep. Each passed step slot issued the load (its step's
// instructions and one memory op) and each passed completion slot retired
// it (its latency, and a tear-off result); when the last slot passed was a
// step, the CPU is waiting on that load. It returns the loads skipped.
func (c *CPU) wake() uint64 {
	passed := c.eng.Wake(&c.sl)
	loads, dones := passed[0], passed[1]
	c.Instructions += loads * (c.stepALU + 1)
	c.MemOps += loads
	c.MemCycles += dones * uint64(c.sleepLat)
	if c.sleepTear {
		c.SpinResults += dones
	}
	if loads > dones {
		c.waiting = true
		c.waitSince = c.sleepAt + engine.Time(loads-1)*(c.sleepLat+1)
	}
	return loads
}

// resumer fires at a woken sleep's next slot: a step, or the completion of
// the load the last passed step slot issued.
type resumer struct{ c *CPU }

func (r resumer) Fire(now engine.Time, arg engine.Arg) {
	if arg.A == 0 {
		r.c.step(now)
		return
	}
	r.c.complete(mem.Result{Value: r.c.sleepVal, TearOff: r.c.sleepTear})
}
