package check

import (
	"errors"
	"testing"

	"iqolb/internal/faults"
	"iqolb/internal/machine"
	"iqolb/internal/workload"
)

// mutationRun executes the 2-proc hand-off kernel under IQOLB with a
// monitor and the given fault plan (nil = clean run),
// returning the monitor and the run error without failing on either (a
// detected violation halts the machine, which surfaces as a deadlock).
// The fault switches are per-machine, so these tests parallelize with
// the rest of the package.
func mutationRun(t *testing.T, plan *faults.Plan) (*Monitor, error) {
	t.Helper()
	p := defaultHandoffParams(2)
	mech := Mechanisms()[4] // iqolb
	bld, err := workload.Generate(p, mech.Primitive, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mech.Config(2)
	cfg.CycleLimit = 5_000_000 // backstop: the stuck-delay fault livelocks
	cfg.Faults = plan
	m, err := machine.New(cfg, bld.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range bld.Locks {
		m.RegisterLockAddr(l)
	}
	mon := AttachToMachine(m, Config{StarvationBound: 50_000})
	_, runErr := m.Run()
	mon.Finish()
	return mon, runErr
}

func kinds(vs []Violation) map[string]int {
	k := make(map[string]int)
	for _, v := range vs {
		k[v.Kind]++
	}
	return k
}

// TestMutationTearOffOwnership: with the injected fault sending tear-offs
// as ownership transfers (two writable copies of the lock line), the SWMR
// monitor must fire. Guards against a vacuously passing checker.
func TestMutationTearOffOwnership(t *testing.T) {
	t.Parallel()
	mon, _ := mutationRun(t, &faults.Plan{Seed: 1, Kinds: []faults.Kind{faults.TearOffOwnership}})
	if kinds(mon.Violations())["swmr"] == 0 {
		t.Fatalf("injected tear-off-ownership fault not detected; violations: %v", mon.Violations())
	}
	if !errors.Is(mon.Err(), ErrProtocolViolation) {
		t.Fatalf("Err() = %v; want ErrProtocolViolation", mon.Err())
	}
}

// TestMutationStuckDelay: with the injected fault wedging delayed
// responses (flush and time-out both suppressed), the queued LPRFO waiter
// starves and the watchdog must fire.
func TestMutationStuckDelay(t *testing.T) {
	t.Parallel()
	mon, _ := mutationRun(t, &faults.Plan{Seed: 1, Kinds: []faults.Kind{faults.StuckDelay}})
	if kinds(mon.Violations())["starvation"] == 0 {
		t.Fatalf("injected stuck-delay fault not detected; violations: %v", mon.Violations())
	}
}

// TestMutationsOff: the identical run with no fault plan is clean — the
// mutation tests above detect the faults, not the workload.
func TestMutationsOff(t *testing.T) {
	t.Parallel()
	mon, err := mutationRun(t, nil)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if len(mon.Violations()) != 0 {
		t.Fatalf("unmutated run not clean: %v", mon.Violations())
	}
}

// TestMutationStuckDelayDegrades: the same stuck-delay injection with the
// fabric wired as the monitor's Degrader recovers instead of starving:
// the watchdog drops the machine to plain-RFO semantics, the run
// completes, and no violation is recorded.
func TestMutationStuckDelayDegrades(t *testing.T) {
	t.Parallel()
	p := defaultHandoffParams(2)
	mech := Mechanisms()[4] // iqolb
	bld, err := workload.Generate(p, mech.Primitive, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := mech.Config(2)
	cfg.CycleLimit = 5_000_000
	cfg.Faults = &faults.Plan{Seed: 1, Kinds: []faults.Kind{faults.StuckDelay}}
	m, err := machine.New(cfg, bld.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range bld.Locks {
		m.RegisterLockAddr(l)
	}
	mon := AttachToMachine(m, Config{StarvationBound: 50_000, Degrader: m.Fabric()})
	res, runErr := m.Run()
	if err := mon.Finish(); err != nil {
		t.Fatalf("degraded run not clean: %v", err)
	}
	if runErr != nil {
		t.Fatalf("degraded run failed: %v", runErr)
	}
	if res.HitLimit {
		t.Fatal("degraded run hit the cycle limit")
	}
	if deg, reason := mon.Degraded(); !deg || reason == "" {
		t.Fatalf("monitor did not degrade (degraded=%v reason=%q)", deg, reason)
	}
	if deg, _ := m.Fabric().Degraded(); !deg {
		t.Fatal("fabric did not degrade")
	}
}
