package check

import (
	"testing"

	"iqolb/internal/machine"
	"iqolb/internal/workload"
)

// monitoredRun executes p under mech with a monitor attached and returns
// the monitor; the run itself must succeed.
func monitoredRun(t *testing.T, p workload.Params, mech Mechanism, procs int) *Monitor {
	t.Helper()
	bld, err := workload.Generate(p, mech.Primitive, procs)
	if err != nil {
		t.Fatalf("%s: generate: %v", mech.Name, err)
	}
	m, err := machine.New(mech.Config(procs), bld.Program, nil)
	if err != nil {
		t.Fatalf("%s: new machine: %v", mech.Name, err)
	}
	for _, l := range bld.Locks {
		m.RegisterLockAddr(l)
	}
	mon := AttachToMachine(m, Config{})
	res, err := m.Run()
	if cerr := mon.Finish(); cerr != nil {
		t.Fatalf("%s: %v", mech.Name, cerr)
	}
	if err != nil {
		t.Fatalf("%s: run: %v", mech.Name, err)
	}
	if res.HitLimit {
		t.Fatalf("%s: hit cycle limit", mech.Name)
	}
	if err := bld.VerifyCounters(p, m.Peek); err != nil {
		t.Fatalf("%s: %v", mech.Name, err)
	}
	return mon
}

// TestMonitorCleanAcrossMechanisms: a contended hand-off kernel satisfies
// every invariant under each of the five mechanisms, and the monitor
// demonstrably watched (tracked lines, checked them).
func TestMonitorCleanAcrossMechanisms(t *testing.T) {
	p := defaultHandoffParams(4)
	for _, mech := range Mechanisms() {
		mon := monitoredRun(t, p, mech, 4)
		if len(mon.Violations()) != 0 {
			t.Errorf("%s: violations: %v", mech.Name, mon.Violations())
		}
		if mon.TrackedLines() == 0 {
			t.Errorf("%s: monitor tracked no lines (vacuous run)", mech.Name)
		}
		if mon.Checks() == 0 {
			t.Errorf("%s: monitor never checked a line", mech.Name)
		}
	}
}

// TestMonitorCleanIQOLBVariants exercises the delay machinery's
// alternatives: queue breakdown (retention off, which squashes and
// re-issues LPRFOs) and no-tear-off operation, plus a multi-lock signature
// with barriers, jitter, and private traffic.
func TestMonitorCleanIQOLBVariants(t *testing.T) {
	variants := []Mechanism{
		{Name: "iqolb-noret", Primitive: Mechanisms()[4].Primitive, Mode: Mechanisms()[4].Mode, Retention: false, TearOff: true},
		{Name: "iqolb-notear", Primitive: Mechanisms()[4].Primitive, Mode: Mechanisms()[4].Mode, Retention: true, TearOff: false},
	}
	p := workload.Params{
		Iterations: 2, Locks: 3, TotalCS: 24, HotPct: 50,
		CSWork: 20, CSWrites: 2, ThinkWork: 40, ThinkJitter: 20,
		PrivateLines: 2, BarriersPerIter: 1,
	}
	for _, mech := range variants {
		mon := monitoredRun(t, p, mech, 4)
		if len(mon.Violations()) != 0 {
			t.Errorf("%s: violations: %v", mech.Name, mon.Violations())
		}
	}
}
