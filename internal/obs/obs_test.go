package obs_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"iqolb/internal/check"
	"iqolb/internal/experiments"
	"iqolb/internal/machine"
	"iqolb/internal/obs"
	"iqolb/internal/workload"
)

// runTraced executes one scaled-down benchmark under the named system with
// an observability Log attached and returns the log plus the run's cycle
// count.
func runTraced(t *testing.T, bench, system string, procs, scale int) (*obs.Log, uint64) {
	t.Helper()
	log, cycles, err := tracedRun(bench, system, procs, scale, true)
	if err != nil {
		t.Fatal(err)
	}
	return log, cycles
}

// newMachine assembles (without running) one scaled-down benchmark under
// the named system.
func newMachine(bench, system string, procs, scale int) (*machine.Machine, error) {
	sys, err := experiments.SystemByName(system)
	if err != nil {
		return nil, err
	}
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	p := experiments.Scale(spec.Params, scale, procs)
	bld, err := workload.Generate(p, sys.Primitive, procs)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(sys.MachineConfig(procs), bld.Program, nil)
	if err != nil {
		return nil, err
	}
	for _, l := range bld.Locks {
		m.RegisterLockAddr(l)
	}
	return m, nil
}

func tracedRun(bench, system string, procs, scale int, attach bool) (*obs.Log, uint64, error) {
	m, err := newMachine(bench, system, procs, scale)
	if err != nil {
		return nil, 0, err
	}
	var log *obs.Log
	if attach {
		log = obs.Attach(m)
	}
	res, err := m.Run()
	if err != nil {
		return nil, 0, err
	}
	return log, res.Cycles, nil
}

// TestEventStream checks the raw log of an 8-proc IQOLB run: cycles are
// nondecreasing in collection order, node/peer IDs are in range, and every
// event family the run must produce is present.
func TestEventStream(t *testing.T) {
	const procs = 8
	log, cycles := runTraced(t, "raytrace", "iqolb", procs, 8)
	evs := log.Events()
	if len(evs) == 0 {
		t.Fatal("no events collected")
	}
	if log.Len() != len(evs) {
		t.Fatalf("Len() = %d, len(Events()) = %d", log.Len(), len(evs))
	}
	seen := make(map[obs.Kind]int)
	var prev uint64
	for i, e := range evs {
		if e.Cycle < prev {
			t.Fatalf("event %d (%s): cycle %d < previous %d", i, e.Kind, e.Cycle, prev)
		}
		prev = e.Cycle
		if e.Cycle > cycles {
			t.Fatalf("event %d (%s): cycle %d beyond run end %d", i, e.Kind, e.Cycle, cycles)
		}
		if e.Node != obs.NoNode && (e.Node < 0 || int(e.Node) >= procs) {
			t.Fatalf("event %d (%s): node %d out of range", i, e.Kind, e.Node)
		}
		if e.Peer != obs.NoNode && (e.Peer < 0 || int(e.Peer) >= procs) {
			t.Fatalf("event %d (%s): peer %d out of range", i, e.Kind, e.Peer)
		}
		seen[e.Kind]++
	}
	if log.EndCycle() != prev {
		t.Fatalf("EndCycle() = %d, want last event cycle %d", log.EndCycle(), prev)
	}
	// raytrace on IQOLB hammers one hot lock across barriered iterations:
	// the full lock lifecycle, LPRFO traffic, delayed responses, bus
	// samples and barrier episodes must all appear.
	for _, k := range []obs.Kind{
		obs.EvLockAttempt, obs.EvLockAcquire, obs.EvLockRelease,
		obs.EvLPRFOIssue, obs.EvDelayStart, obs.EvDelayEnd,
		obs.EvBusSample, obs.EvBarrierArrive, obs.EvBarrierRelease,
	} {
		if seen[k] == 0 {
			t.Errorf("no %s events collected (histogram: %v)", k, seen)
		}
	}
}

// TestProfiles checks the derived per-lock contention profiles for
// internal consistency.
func TestProfiles(t *testing.T) {
	const procs = 8
	log, _ := runTraced(t, "raytrace", "iqolb", procs, 8)
	profiles := log.Profiles()
	if len(profiles) == 0 {
		t.Fatal("no lock profiles")
	}
	for i, p := range profiles {
		if i > 0 && profiles[i-1].Addr >= p.Addr {
			t.Fatalf("profiles not sorted by address: %#x then %#x", profiles[i-1].Addr, p.Addr)
		}
		if p.Acquires == 0 || p.Releases == 0 || p.Attempts == 0 {
			t.Fatalf("lock %#x: empty lifecycle counts %+v", p.Addr, p)
		}
		var byProc uint64
		for _, n := range p.AcquiresByProc {
			byProc += n
		}
		if byProc != p.Acquires {
			t.Errorf("lock %#x: AcquiresByProc sums to %d, Acquires = %d", p.Addr, byProc, p.Acquires)
		}
		if len(p.AcquiresByProc) != procs {
			t.Errorf("lock %#x: AcquiresByProc has %d entries, want %d", p.Addr, len(p.AcquiresByProc), procs)
		}
		if p.MaxQueueDepth < 1 {
			t.Errorf("lock %#x: MaxQueueDepth = %d on a contended lock", p.Addr, p.MaxQueueDepth)
		}
		if p.HoldTime.Count > p.Acquires {
			t.Errorf("lock %#x: %d hold samples > %d acquires", p.Addr, p.HoldTime.Count, p.Acquires)
		}
		if p.AcquireWait.Count > p.Attempts {
			t.Errorf("lock %#x: %d wait samples > %d attempts", p.Addr, p.AcquireWait.Count, p.Attempts)
		}
		if p.HandoffLatency.Count == 0 {
			t.Errorf("lock %#x: no hand-off samples on a contended lock", p.Addr)
		}
		if len(p.QueueDepth) == 0 {
			t.Errorf("lock %#x: no queue-depth series", p.Addr)
		}
	}

	snap := log.Snapshot()
	if snap.SchemaVersion != obs.SnapshotSchemaVersion {
		t.Errorf("snapshot schema %d, want %d", snap.SchemaVersion, obs.SnapshotSchemaVersion)
	}
	if snap.Events != log.Len() {
		t.Errorf("snapshot Events = %d, log has %d", snap.Events, log.Len())
	}
	if snap.EndCycle != log.EndCycle() {
		t.Errorf("snapshot EndCycle = %d, log says %d", snap.EndCycle, log.EndCycle())
	}
	for _, p := range snap.Locks {
		if p.QueueDepth != nil {
			t.Errorf("lock %#x: snapshot kept the queue-depth series", p.Addr)
		}
	}
	if snap.Bus.Samples == 0 || snap.Bus.MaxOutstanding == 0 {
		t.Errorf("empty bus profile: %+v", snap.Bus)
	}
	if snap.Barriers.Episodes == 0 || snap.Barriers.Span.Count != snap.Barriers.Episodes {
		t.Errorf("inconsistent barrier profile: %+v", snap.Barriers)
	}
}

// TestPerfettoValidity loads the export of an 8-proc IQOLB run back as
// JSON and checks the Chrome trace-event contract: every event carries a
// known phase, the pid/tid/ts fields Perfetto groups by, durations on
// complete events, and the tracks the ISSUE promises (lock-hold spans,
// hand-off spans, a bus-occupancy counter).
func TestPerfettoValidity(t *testing.T) {
	log, _ := runTraced(t, "raytrace", "iqolb", 8, 8)
	var buf bytes.Buffer
	if err := log.ExportPerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  *float64       `json:"dur"`
			Pid  *int           `json:"pid"`
			Tid  *int           `json:"tid"`
			S    string         `json:"s"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("no trace events")
	}
	if file.OtherData["schema_version"] != float64(obs.TraceSchemaVersion) {
		t.Errorf("otherData schema_version = %v, want %d", file.OtherData["schema_version"], obs.TraceSchemaVersion)
	}
	var holds, handoffs, busCounters, waits, delays int
	for i, e := range file.TraceEvents {
		switch e.Ph {
		case "X":
			if e.Dur == nil {
				t.Fatalf("event %d (%q): complete event without dur", i, e.Name)
			}
		case "i":
			if e.S != "t" {
				t.Fatalf("event %d (%q): instant without thread scope", i, e.Name)
			}
		case "C", "M":
		default:
			t.Fatalf("event %d (%q): unknown phase %q", i, e.Name, e.Ph)
		}
		if e.Pid == nil || e.Tid == nil {
			t.Fatalf("event %d (%q): missing pid/tid", i, e.Name)
		}
		if e.Ph != "M" && e.Ts == nil {
			t.Fatalf("event %d (%q): missing ts", i, e.Name)
		}
		if e.Name == "" {
			t.Fatalf("event %d: empty name", i)
		}
		switch {
		case strings.HasPrefix(e.Name, "hold "):
			holds++
		case strings.HasPrefix(e.Name, "handoff "):
			handoffs++
		case strings.HasPrefix(e.Name, "wait "):
			waits++
		case e.Name == "bus occupancy" && e.Ph == "C":
			busCounters++
		case e.Name == "delay Δ":
			delays++
		}
	}
	if holds == 0 || handoffs == 0 || waits == 0 || busCounters == 0 || delays == 0 {
		t.Errorf("missing tracks: holds=%d handoffs=%d waits=%d bus=%d delays=%d",
			holds, handoffs, waits, busCounters, delays)
	}
}

// TestExportDeterminism runs the same spec twice and demands byte-identical
// Perfetto exports and metric snapshots — the regression guard behind the
// "same spec + seed ⇒ same trace" contract.
func TestExportDeterminism(t *testing.T) {
	export := func() ([]byte, []byte) {
		log, _ := runTraced(t, "raytrace", "iqolb", 8, 8)
		var buf bytes.Buffer
		if err := log.ExportPerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		snap, err := json.Marshal(log.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), snap
	}
	trace1, snap1 := export()
	trace2, snap2 := export()
	if !bytes.Equal(trace1, trace2) {
		t.Errorf("Perfetto exports differ across identical runs (%d vs %d bytes)", len(trace1), len(trace2))
	}
	if !bytes.Equal(snap1, snap2) {
		t.Errorf("snapshots differ across identical runs:\n%s\n%s", snap1, snap2)
	}
}

// TestNoPerturbation proves the collectors are passive: a run with the full
// observability layer attached finishes in exactly the same number of
// cycles as a bare run.
func TestNoPerturbation(t *testing.T) {
	for _, sys := range []string{"iqolb", "qolb", "tts"} {
		_, bare, err := tracedRun("raytrace", sys, 8, 8, false)
		if err != nil {
			t.Fatal(err)
		}
		log, traced, err := tracedRun("raytrace", sys, 8, 8, true)
		if err != nil {
			t.Fatal(err)
		}
		if bare != traced {
			t.Errorf("%s: tracing perturbed the run: %d cycles bare, %d traced", sys, bare, traced)
		}
		if log.Len() == 0 {
			t.Errorf("%s: traced run collected nothing", sys)
		}
	}
}

// TestNoPerturbationAttachOrder puts the invariant monitor and the trace
// collector on one machine in both attach orders. Observers add themselves
// alongside whatever is already attached, so either order must collect the
// same events, check the same lines, reach the same verdict and leave the
// run's cycle count alone.
func TestNoPerturbationAttachOrder(t *testing.T) {
	_, bare, err := tracedRun("raytrace", "iqolb", 8, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		collected int
		monitored uint64
		cycles    uint64
	}
	run := func(obsFirst bool) outcome {
		m, err := newMachine("raytrace", "iqolb", 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		var log *obs.Log
		if obsFirst {
			log = obs.Attach(m)
		}
		mon := check.AttachToMachine(m, check.Config{})
		if !obsFirst {
			log = obs.Attach(m)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if err := mon.Finish(); err != nil {
			t.Errorf("obs first=%v: monitor verdict: %v", obsFirst, err)
		}
		return outcome{log.Len(), mon.Checks(), res.Cycles}
	}
	obsFirst, checkFirst := run(true), run(false)
	if obsFirst != checkFirst {
		t.Errorf("attach order matters: obs then check %+v, check then obs %+v", obsFirst, checkFirst)
	}
	if obsFirst.collected == 0 || obsFirst.monitored == 0 {
		t.Errorf("an observer saw nothing: %+v", obsFirst)
	}
	if obsFirst.cycles != bare {
		t.Errorf("observers perturbed the run: %d cycles bare, %d observed", bare, obsFirst.cycles)
	}
}
