package coherence_test

import (
	"testing"

	"iqolb/internal/coherence"
	"iqolb/internal/experiments"
	"iqolb/internal/machine"
	"iqolb/internal/workload"
)

// TestHotlockRunsEndQuiescent runs the hotlock kernel to completion on a
// whole machine under every TTS-primitive hardware mode and QOLB, then
// checks that no node's records hold anything in flight: every MSHR
// retired, every duty answered or handed off, every loan returned.
func TestHotlockRunsEndQuiescent(t *testing.T) {
	const procs = 4
	spec, err := workload.ByName("hotlock")
	if err != nil {
		t.Fatal(err)
	}
	p := experiments.Scale(spec.Params, 16, procs)
	for _, name := range []string{"tts", "delayed", "delayed-noret", "qolb",
		"iqolb", "iqolb-noret", "iqolb-notearoff"} {
		t.Run(name, func(t *testing.T) {
			sys, err := experiments.SystemByName(name)
			if err != nil {
				t.Fatal(err)
			}
			bld, err := workload.Generate(p, sys.Primitive, procs)
			if err != nil {
				t.Fatal(err)
			}
			m, err := machine.New(sys.MachineConfig(procs), bld.Program, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range bld.Locks {
				m.RegisterLockAddr(l)
			}
			if res, err := m.Run(); err != nil || res.HitLimit {
				t.Fatalf("run: %v (hit limit: %v)", err, res.HitLimit)
			}
			if err := bld.VerifyCounters(p, m.Peek); err != nil {
				t.Fatal(err)
			}
			coherence.CheckQuiescent(t, m.Fabric())
		})
	}
}
