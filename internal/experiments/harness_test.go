package experiments

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iqolb/internal/engine"
	"iqolb/internal/workload"
)

// smokeSpecs is a small grid exercising named benchmarks, explicit
// params, policy overrides and the fetchadd kernel.
func smokeSpecs(t *testing.T) []Spec {
	t.Helper()
	budget := engine.Time(5000)
	entries := 0
	spec, err := workload.ByName("hotlock")
	if err != nil {
		t.Fatal(err)
	}
	hotParams := spec.Params
	hotParams.TotalCS = 64
	hot := &hotParams
	return []Spec{
		{Bench: "raytrace", System: "tts", Procs: 4, Scale: 16},
		{Bench: "raytrace", System: "iqolb", Procs: 4, Scale: 16},
		{Bench: "ocean", System: "qolb", Procs: 4, Scale: 16},
		{Name: "hot-budget", Params: hot, System: "iqolb", Procs: 4, LockTimeout: &budget},
		{Name: "hot-nopred", Params: hot, System: "iqolb", Procs: 4, PredictorEntries: &entries},
		{Kernel: "fetchadd", System: "delayed", Procs: 4, TotalOps: 64, Think: 50},
	}
}

// The determinism regression: the same spec batch run serially and
// through the parallel harness yields bit-identical stats output — the
// engine's FIFO-tiebreak guarantee holds end to end, and positional
// collection keeps output ordering independent of completion order.
func TestHarnessSerialParallelIdentical(t *testing.T) {
	specs := smokeSpecs(t)

	serial, _, err := RunSpecs(Options{Jobs: 1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, _, err := RunSpecs(Options{Jobs: 8}, specs)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if string(sj) != string(pj) {
		t.Fatalf("serial and parallel stats differ:\n%s\n%s", sj, pj)
	}

	// And both match direct serial execution outside the harness.
	for i, s := range specs {
		direct, err := RunSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		dj, _ := json.Marshal(direct)
		hj, _ := json.Marshal(parallel[i])
		if string(dj) != string(hj) {
			t.Fatalf("spec %d: harness result differs from direct run:\n%s\n%s", i, dj, hj)
		}
	}
}

// The manifest reports sim cycles and lock hand-off percentiles per job.
func TestManifestMetrics(t *testing.T) {
	specs := smokeSpecs(t)[:2]
	_, m, err := RunSpecs(Options{Jobs: 2}, specs)
	if err != nil {
		t.Fatal(err)
	}
	if m.SimCycles <= 0 {
		t.Fatalf("manifest sim cycles = %v", m.SimCycles)
	}
	for _, rec := range m.Records {
		for _, k := range []string{"cycles", "bus_transactions", "lock_handoff_p50", "lock_handoff_p99"} {
			if _, ok := rec.Metrics[k]; !ok {
				t.Fatalf("record %q missing metric %q (have %v)", rec.Label, k, rec.Metrics)
			}
		}
		if rec.Metrics["lock_handoff_p99"] < rec.Metrics["lock_handoff_p50"] {
			t.Fatalf("record %q: p99 < p50", rec.Label)
		}
	}
}

// A traced batch writes each job's Perfetto export, embeds the snapshot
// in the Result and in the manifest record; an untraced record carries
// none.
func TestTracedBatchWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	spec := Spec{Bench: "nullcs", System: "iqolb", Procs: 2, Scale: 64}

	res, m, err := RunSpecs(Options{Jobs: 1, Obs: dir}, []Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Obs == nil {
		t.Error("traced run produced no snapshot")
	}
	if m.Records[0].Snapshot == nil {
		t.Error("traced run's manifest record carries no snapshot")
	}
	if _, err := os.Stat(filepath.Join(dir, "nullcs_iqolb_p2.trace.json")); err != nil {
		t.Errorf("traced run left no Perfetto export: %v", err)
	}

	_, m, err = RunSpecs(Options{Jobs: 1}, []Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if m.Records[0].Snapshot != nil {
		t.Error("untraced run's manifest record carries a snapshot")
	}
}

// A run that exhausts its cycle budget fails with ErrCycleLimit — both
// directly and through the harness (the label-wrapping keeps the chain
// intact), so the CLIs can detect truncation and exit non-zero.
func TestCycleLimitSurfacesTyped(t *testing.T) {
	tiny := engine.Time(100)
	spec := Spec{Bench: "raytrace", System: "tts", Procs: 4, Scale: 16, CycleLimit: &tiny}
	if _, err := RunSpec(spec); !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("RunSpec err = %v, want ErrCycleLimit", err)
	}
	_, m, err := RunSpecs(Options{Jobs: 2}, []Spec{spec})
	if !errors.Is(err, ErrCycleLimit) {
		t.Fatalf("RunSpecs err = %v, want ErrCycleLimit", err)
	}
	if m.Errors != 1 {
		t.Fatalf("manifest errors = %d", m.Errors)
	}
}

// Spec validation rejects malformed jobs before any worker starts.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		spec Spec
		want string
	}{
		{Spec{System: "hyperlock", Procs: 4, Bench: "raytrace"}, "unknown system"},
		{Spec{System: "tts", Procs: 0, Bench: "raytrace"}, "procs"},
		{Spec{System: "tts", Procs: 4}, "need Bench or Params"},
		{Spec{System: "tts", Procs: 4, Bench: "nope"}, "unknown"},
		{Spec{System: "tts", Procs: 4, Kernel: "warp"}, "unknown kernel"},
		{Spec{System: "tts", Procs: 4, Bench: "raytrace", Params: &workload.Params{}}, "mutually exclusive"},
	}
	for _, c := range cases {
		if _, err := RunSpec(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("spec %+v: err = %v, want %q", c.spec, err, c.want)
		}
	}
}
