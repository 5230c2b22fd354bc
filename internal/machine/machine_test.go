package machine

import (
	"errors"
	"strings"
	"testing"

	"iqolb/internal/core"
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

// TestSpinIterationAllocatesNothing pins the simulator's hot path: once a
// TTS waiter spins on an L1-resident lock, each iteration (a load hit, its
// completion, the branch and the next load) schedules and fires two events
// and allocates nothing: no closure per memory op, reschedule or
// completion, and no string per op.
func TestSpinIterationAllocatesNothing(t *testing.T) {
	src := `
	  li    a0, 1024
	  cpuid t0
	  bne   t0, r0, waiter
	  li    t1, 1
	  sw    t1, 0(a0)       # P0 takes the lock
	  work  1000000         # and holds it for the whole test
	  sw    r0, 0(a0)
	  halt
	waiter:
	  work  2000            # P0's store lands first
	spin:
	  lw    t1, 0(a0)
	  bne   t1, r0, spin
	  halt
	`
	m, err := New(cfg(2, core.ModeBaseline), isa.MustAssemble(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range m.cpus {
		c.Start()
	}
	for m.eng.Now() < 10_000 { // warm: P1's line is in its L1
		m.eng.Step()
	}
	const iters = 1000
	hits, memOps := m.st.Nodes[1].L1Hits, m.CPU(1).MemOps
	allocs := testing.AllocsPerRun(iters, func() {
		m.eng.Step() // the load's completion
		m.eng.Step() // the branch and the next load
	})
	if allocs != 0 {
		t.Fatalf("spin iteration: %v allocs, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up run.
	if got := m.st.Nodes[1].L1Hits - hits; got != iters+1 {
		t.Fatalf("P1 made %d L1 hits over %d iterations; the test is not measuring the spin", got, iters+1)
	}
	if got := m.CPU(1).MemOps - memOps; got != iters+1 {
		t.Fatalf("P1 issued %d loads over %d iterations", got, iters+1)
	}
	if m.CPU(0).Halted() || m.eng.Now() >= 1_000_000 {
		t.Fatal("P0 released the lock during the measurement")
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
