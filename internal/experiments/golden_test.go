package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"iqolb/internal/obs"
	"iqolb/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenCheck marshals v as indented JSON and compares it byte-for-byte
// against testdata/golden/<name>.json; -update rewrites the file. A diff
// means the serialized layout changed — that is only legal together with a
// bump of the corresponding SchemaVersion constant.
func goldenCheck(t *testing.T, name string, v any) {
	t.Helper()
	got, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden", name+".json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: serialized layout changed — if intentional, bump the schema version and re-run with -update.\n got: %s\nwant: %s",
			path, got, want)
	}
}

// fixtureHistogram builds a small deterministic histogram.
func fixtureHistogram(samples ...uint64) stats.Histogram {
	var h stats.Histogram
	for _, s := range samples {
		h.Add(s)
	}
	return h
}

// fixtureSnapshot is a hand-built observability snapshot exercising every
// field of the schema.
func fixtureSnapshot() obs.Snapshot {
	return obs.Snapshot{
		SchemaVersion: obs.SnapshotSchemaVersion,
		Events:        42,
		EndCycle:      9000,
		Locks: []obs.LockProfile{{
			Addr:           0x4000,
			Attempts:       12,
			Acquires:       10,
			Releases:       10,
			AcquiresByProc: []uint64{3, 3, 2, 2},
			MaxQueueDepth:  3,
			HoldTime:       fixtureHistogram(40, 44, 48),
			HandoffLatency: fixtureHistogram(25, 26),
			AcquireWait:    fixtureHistogram(100, 210, 320),
		}},
		Bus:      obs.BusProfile{Samples: 7, MaxQueued: 4, MaxOutstanding: 1},
		Barriers: obs.BarrierProfile{Episodes: 2, Span: fixtureHistogram(500, 600)},
	}
}

// TestGoldenResult pins the serialized Result layout (schema version 2),
// including the fault-campaign fields.
func TestGoldenResult(t *testing.T) {
	snap := fixtureSnapshot()
	goldenCheck(t, "result", Result{
		SchemaVersion:   ResultSchemaVersion,
		System:          "iqolb",
		Benchmark:       "hotlock",
		Processors:      4,
		Cycles:          123456,
		BusTransactions: 789,
		SCFailureRate:   0.25,
		TearOffs:        11,
		Timeouts:        2,
		Breakdowns:      1,
		LockHandoffMean: 26.5,
		Obs:             &snap,
		Degraded:        true,
		DegradeReason:   "starvation: node P1 LPRFO on line 256 ungranted after 200001 cycles",
		FaultInjections: map[string]uint64{"stuck-delay": 1},
		FinalCounters:   []uint64{4096},
	})
}

// TestGoldenSnapshot pins the serialized obs.Snapshot layout (schema
// version 1).
func TestGoldenSnapshot(t *testing.T) {
	goldenCheck(t, "snapshot", fixtureSnapshot())
}

// TestGoldenManifest pins the serialized Manifest layout (schema version
// 3), including a record carrying a snapshot and one recording a failure.
func TestGoldenManifest(t *testing.T) {
	snap := fixtureSnapshot()
	goldenCheck(t, "manifest", Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Workers:       4,
		Jobs:          2,
		Errors:        1,
		WallMS:        42.5,
		SimCycles:     123456,
		Records: []Record{
			{
				Label:    "hotlock/iqolb/p4",
				Status:   StatusOK,
				WallMS:   12,
				Metrics:  map[string]float64{"cycles": 123456},
				Snapshot: &snap,
			},
			{
				Label:  "hotlock/iqolb/p8",
				Status: StatusError,
				WallMS: 30,
				Error:  "hotlock/iqolb/p8: hit the engine cycle limit (100 cycles)",
			},
		},
	})
}

// TestGoldenSchemaVersions pins the constants themselves: bumping one is a
// deliberate act that must come with regenerated golden files.
func TestGoldenSchemaVersions(t *testing.T) {
	versions := map[string]struct{ got, want int }{
		"result":   {ResultSchemaVersion, 2},
		"manifest": {ManifestSchemaVersion, 3},
		"snapshot": {obs.SnapshotSchemaVersion, 1},
		"trace":    {obs.TraceSchemaVersion, 1},
		"campaign": {CampaignSchemaVersion, 1},
	}
	for name, v := range versions {
		if v.got != v.want {
			t.Errorf("%s schema version = %d; this test pins %d — update it and the golden files together", name, v.got, v.want)
		}
	}
}
