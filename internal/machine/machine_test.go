package machine

import (
	"errors"
	"strings"
	"testing"

	"iqolb/internal/core"
	"iqolb/internal/engine"
	"iqolb/internal/isa"
	"iqolb/internal/proc"
	"iqolb/internal/stats"
)

func cfg(n int, mode core.Mode) Config {
	c := DefaultConfig(n, mode)
	c.CycleLimit = 50_000_000
	return c
}

func mustRun(t *testing.T, c Config, prog *isa.Program) (*Machine, Result) {
	t.Helper()
	m, err := New(c, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.HitLimit {
		t.Fatal("run hit cycle limit")
	}
	return m, res
}

func TestSingleCPUHalts(t *testing.T) {
	prog := isa.MustAssemble("li t0, 5\n work 100\n halt")
	_, res := mustRun(t, cfg(1, core.ModeBaseline), prog)
	if res.Cycles < 100 {
		t.Fatalf("cycles = %d, want >= 100", res.Cycles)
	}
	if res.PerCPU[0].Instructions != 3 {
		t.Fatalf("instructions = %d, want 3", res.PerCPU[0].Instructions)
	}
}

func TestSharedCounterTTSMutualExclusion(t *testing.T) {
	// Every CPU increments a shared counter N times under a TTS lock.
	// The final value must be exactly P*N — the end-to-end mutual
	// exclusion check.
	const iters = 20
	src := `
	  li   a0, 1024         # lock address
	  li   a1, 2048         # counter address
	  li   s0, 0            # iteration count
	  li   s1, 20
	loop:
	  # --- tts acquire ---
	spin:
	  ll   t1, 0(a0)
	  bne  t1, r0, spin
	  li   t0, 1
	  sc   t0, 0(a0)
	  beq  t0, r0, spin
	  # --- critical section ---
	  lw   t2, 0(a1)
	  addi t2, t2, 1
	  sw   t2, 0(a1)
	  # --- release ---
	  sw   r0, 0(a0)
	  addi s0, s0, 1
	  blt  s0, s1, loop
	  halt
	`
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeAggressive, core.ModeDelayed, core.ModeIQOLB} {
		t.Run(mode.String(), func(t *testing.T) {
			const procs = 8
			c := cfg(procs, mode)
			m, err := New(c, isa.MustAssemble(src), nil)
			if err != nil {
				t.Fatal(err)
			}
			m.RegisterLockAddr(1024)
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.HitLimit {
				t.Fatal("hit cycle limit (livelock)")
			}
			if got := m.Peek(2048); got != procs*iters {
				t.Fatalf("counter = %d, want %d (mutual exclusion violated)", got, procs*iters)
			}
			if res.Stats.Total(func(n *stats.Node) uint64 { return n.LockAcquires }) == 0 {
				t.Fatal("no lock acquires recorded")
			}
		})
	}
}

func TestSharedCounterQOLB(t *testing.T) {
	const iters, procs = 20, 8
	src := `
	  li   a0, 1024
	  li   a1, 2048
	  li   s0, 0
	  li   s1, 20
	loop:
	  enqolb t0, 0(a0)
	  lw   t2, 0(a1)
	  addi t2, t2, 1
	  sw   t2, 0(a1)
	  deqolb 0(a0)
	  addi s0, s0, 1
	  blt  s0, s1, loop
	  halt
	`
	c := cfg(procs, core.ModeBaseline)
	m, err := New(c, isa.MustAssemble(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	m.RegisterLockAddr(1024)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.HitLimit {
		t.Fatal("hit limit")
	}
	if got := m.Peek(2048); got != procs*iters {
		t.Fatalf("counter = %d, want %d", got, procs*iters)
	}
	if m.Fabric().QOLB().Handoffs == 0 {
		t.Fatal("no QOLB handoffs under contention")
	}
}

func TestFetchAddViaLLSCAllModes(t *testing.T) {
	// A Fetch&Add loop with no lock: final counter must equal the sum of
	// all successful increments regardless of mode.
	const iters, procs = 25, 6
	src := `
	  li   a1, 4096
	  li   s0, 0
	  li   s1, 25
	loop:
	  ll   t1, 0(a1)
	  addi t1, t1, 1
	  sc   t1, 0(a1)
	  beq  t1, r0, loop    # retry on failure (does not count)
	  addi s0, s0, 1
	  blt  s0, s1, loop
	  halt
	`
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeDelayed, core.ModeIQOLB} {
		t.Run(mode.String(), func(t *testing.T) {
			m, res := mustRun(t, cfg(procs, mode), isa.MustAssemble(src))
			if got := m.Peek(4096); got != iters*procs {
				t.Fatalf("counter = %d, want %d (lost updates)", got, iters*procs)
			}
			_ = res
		})
	}
}

func TestDelayedModeEliminatesSCFailures(t *testing.T) {
	// The paper's Fetch&Phi pattern: every processor visits the shared
	// counter once per episode with other work in between, so each RMW
	// re-fetches the line. Baseline then pays two transactions plus SC
	// retries; delayed response pays one and no retries (§3.2, Figure 3).
	const procs = 6
	src := `
	  li   a1, 4096
	  li   s0, 0
	  li   s1, 25
	loop:
	  ll   t1, 0(a1)
	  addi t1, t1, 1
	  sc   t1, 0(a1)
	  beq  t1, r0, loop
	  work 120
	  addi s0, s0, 1
	  blt  s0, s1, loop
	  halt
	`
	_, base := mustRun(t, cfg(procs, core.ModeBaseline), isa.MustAssemble(src))
	_, delayed := mustRun(t, cfg(procs, core.ModeDelayed), isa.MustAssemble(src))
	if base.Stats.SCFailureRate() == 0 {
		t.Fatal("baseline had no SC failures under contention — suspicious")
	}
	if delayed.Stats.SCFailureRate() >= base.Stats.SCFailureRate() {
		t.Fatalf("delayed SC failure rate %.3f not below baseline %.3f",
			delayed.Stats.SCFailureRate(), base.Stats.SCFailureRate())
	}
	if delayed.Cycles >= base.Cycles {
		t.Fatalf("delayed mode (%d cycles) not faster than baseline (%d) on contended Fetch&Add",
			delayed.Cycles, base.Cycles)
	}
}

func TestBarrierAcrossMachine(t *testing.T) {
	// CPU 0 computes long before the barrier; all must wait for it.
	src := `
	  cpuid t0
	  bne   t0, r0, wait
	  work  5000
	wait:
	  bar   1
	  halt
	`
	_, res := mustRun(t, cfg(4, core.ModeBaseline), isa.MustAssemble(src))
	for i, c := range res.PerCPU {
		if c.HaltedAt < 5000 {
			t.Fatalf("cpu %d halted at %d, before the barrier released", i, c.HaltedAt)
		}
	}
}

func TestDeterminism(t *testing.T) {
	src := `
	  li   a0, 1024
	  li   a1, 2048
	  li   s0, 0
	  li   s1, 10
	loop:
	spin:
	  ll   t1, 0(a0)
	  bne  t1, r0, spin
	  li   t0, 1
	  sc   t0, 0(a0)
	  beq  t0, r0, spin
	  lw   t2, 0(a1)
	  rand t3, 8
	  workr t3
	  addi t2, t2, 1
	  sw   t2, 0(a1)
	  sw   r0, 0(a0)
	  addi s0, s0, 1
	  blt  s0, s1, loop
	  halt
	`
	run := func() uint64 {
		_, res := mustRun(t, cfg(6, core.ModeIQOLB), isa.MustAssemble(src))
		return res.Cycles
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic runs: %d vs %d cycles", a, b)
	}
}

func TestDoubleRunRejected(t *testing.T) {
	m, _ := mustRun(t, cfg(1, core.ModeBaseline), isa.MustAssemble("halt"))
	if _, err := m.Run(); err == nil {
		t.Fatal("second Run accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(0, core.ModeBaseline)
	if _, err := New(bad, isa.MustAssemble("halt"), nil); err == nil {
		t.Fatal("zero processors accepted")
	}
	bad2 := DefaultConfig(1, core.ModeBaseline)
	bad2.IssueWidth = 0
	if _, err := New(bad2, isa.MustAssemble("halt"), nil); err == nil {
		t.Fatal("zero issue width accepted")
	}
}

func TestPeekFindsDirtyCacheData(t *testing.T) {
	m, _ := mustRun(t, cfg(2, core.ModeBaseline), isa.MustAssemble(`
	  cpuid t0
	  bne   t0, r0, done
	  li    t1, 77
	  sw    t1, 0(gp)     # gp = 0
	done:
	  halt
	`))
	if got := m.Peek(0); got != 77 {
		t.Fatalf("Peek = %d, want 77 (dirty line still in cache)", got)
	}
}

// spinWaiter is P1's half of the spin programs: it waits for P0 to take
// the lock, then spins until P0 releases it a million cycles later.
const spinWaiter = `
waiter:
  work  3000            # P0 holds the lock by then
spin:
  ll    t1, 0(a0)
  bne   t1, r0, spin
  halt
`

// TestSleepingSpinCostsNothing pins what a spin iteration costs once the
// spinner sleeps: nothing. After warm-up, a TTS waiter spinning on an
// L1-resident lock, and an IQOLB waiter spinning on its tear-off copy,
// pass thousands of cycles with no event dispatched and nothing
// allocated; settled, their CPU and cache counters equal those of a run
// that dispatched every iteration.
func TestSleepingSpinCostsNothing(t *testing.T) {
	tts := `
	  li    a0, 1024
	  cpuid t0
	  bne   t0, r0, waiter
	  li    t1, 1
	  sw    t1, 0(a0)       # P0 takes the lock
	  work  1000000         # and holds it for the whole test
	  sw    r0, 0(a0)
	  halt
	` + spinWaiter
	// P0's first acquire and release train its predictor, so the second
	// is held as a lock and P1's LL is answered with a tear-off.
	iqolb := `
	  li    a0, 1024
	  cpuid t0
	  bne   t0, r0, waiter
	  li    t4, 2
	acq:
	  ll    t1, 0(a0)
	  bne   t1, r0, acq
	  li    t2, 1
	  sc    t2, 0(a0)
	  beq   t2, r0, acq
	  addi  t4, t4, -1
	  beq   t4, r0, hold
	  sw    r0, 0(a0)
	  j     acq
	hold:
	  work  1000000
	  sw    r0, 0(a0)
	  halt
	` + spinWaiter
	for _, tc := range []struct {
		name string
		mode core.Mode
		src  string
	}{{"tts", core.ModeBaseline, tts}, {"iqolb-tearoff", core.ModeIQOLB, iqolb}} {
		t.Run(tc.name, func(t *testing.T) {
			start := func(awake bool) *Machine {
				c := cfg(2, tc.mode)
				c.Core.LockTimeout = 10_000_000 // P0 keeps the lock for the whole test
				m, err := New(c, isa.MustAssemble(tc.src), nil)
				if err != nil {
					t.Fatal(err)
				}
				if awake {
					m.eng.AddAfterStep(func(engine.Time) {})
				}
				for _, c := range m.cpus {
					c.Start()
				}
				return m
			}
			m := start(false)
			end := engine.Time(10_000) // warm: P1 spins
			m.eng.Run(end)
			fired := m.eng.Fired()
			allocs := testing.AllocsPerRun(100, func() {
				end += 1000
				m.eng.Run(end)
			})
			if allocs != 0 {
				t.Fatalf("1000 cycles of a sleeping spin: %v allocs, want 0", allocs)
			}
			if got := m.eng.Fired() - fired; got != 0 {
				t.Fatalf("a sleeping spin dispatched %d events over %d cycles, want 0", got, end-10_000)
			}
			ref := start(true)
			ref.eng.Run(end)
			m.fabric.Settle()
			if m.CPU(0).Halted() || ref.CPU(0).Halted() {
				t.Fatal("P0 released the lock during the measurement")
			}
			got, want := m.CPU(1), ref.CPU(1)
			if got.Instructions != want.Instructions || got.MemOps != want.MemOps ||
				got.MemCycles != want.MemCycles || got.SpinResults != want.SpinResults {
				t.Fatalf("P1 counters %d/%d/%d/%d, want the awake run's %d/%d/%d/%d (instructions/mem ops/mem cycles/spin results)",
					got.Instructions, got.MemOps, got.MemCycles, got.SpinResults,
					want.Instructions, want.MemOps, want.MemCycles, want.SpinResults)
			}
			if want.MemOps < 40_000 {
				t.Fatalf("P1 issued %d loads by cycle %d; the test is not measuring the spin", want.MemOps, end)
			}
			gs, ws := m.st.Nodes[1], ref.st.Nodes[1]
			if gs.L1Hits != ws.L1Hits || gs.LocalSpins != ws.LocalSpins || gs.LLCount != ws.LLCount ||
				m.fabric.Node(1).L1().Hits != ref.fabric.Node(1).L1().Hits {
				t.Fatalf("P1 node counters differ: L1 hits %d/%d, local spins %d/%d, LLs %d/%d",
					gs.L1Hits, ws.L1Hits, gs.LocalSpins, ws.LocalSpins, gs.LLCount, ws.LLCount)
			}
			if tc.mode == core.ModeIQOLB && want.SpinResults < 40_000 {
				t.Fatalf("P1 read its tear-off %d times; the test is not measuring the tear-off spin", want.SpinResults)
			}
		})
	}
}

func TestDeadlockIsTyped(t *testing.T) {
	// CPU 0 halts without reaching the barrier; CPU 1 parks there forever.
	// The drained event queue must surface as a *DeadlockError naming the
	// stuck processor and its barrier, not a bare formatted error.
	src := `
	  cpuid t0
	  beq   t0, r0, done
	  bar   7
	done:
	  halt
	`
	c := cfg(2, core.ModeBaseline)
	c.CycleLimit = 0 // the queue drains on its own; no limit needed
	m, err := New(c, isa.MustAssemble(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, runErr := m.Run()
	if runErr == nil {
		t.Fatal("deadlocked run returned nil error")
	}
	if !errors.Is(runErr, ErrDeadlock) {
		t.Fatalf("errors.Is(err, ErrDeadlock) = false for %v", runErr)
	}
	var de *DeadlockError
	if !errors.As(runErr, &de) {
		t.Fatalf("error is not a *DeadlockError: %v", runErr)
	}
	if de.Halted != 1 || de.Procs != 2 {
		t.Fatalf("DeadlockError = %+v; want 1 of 2 halted", de)
	}
	var stuck *proc.Stall
	for i := range de.Stalls {
		if !de.Stalls[i].Halted {
			stuck = &de.Stalls[i]
		}
	}
	if stuck == nil {
		t.Fatal("no unhalted processor in the stall dump")
	}
	if stuck.CPU != 1 || stuck.Waiting != "barrier 7" {
		t.Fatalf("stall dump = %+v; want CPU 1 waiting on barrier 7", *stuck)
	}
	if !strings.Contains(runErr.Error(), "1 of 2 processors halted") ||
		!strings.Contains(runErr.Error(), "barrier 7") {
		t.Fatalf("error text missing summary or stall line:\n%s", runErr)
	}
}
