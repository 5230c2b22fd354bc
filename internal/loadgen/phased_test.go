package loadgen

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokePhases is a miniature low→high→low schedule sized for CI.
func smokePhases() []Phase {
	return []Phase{
		{Name: "low", Resources: 8, Think: 200_000, OpsPerClient: 40},
		{Name: "high", Resources: 1, Think: 0, OpsPerClient: 120},
		{Name: "cooldown", Resources: 8, Think: 200_000, OpsPerClient: 40},
	}
}

func TestRunPhasesSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("real TCP clients; skip in -short")
	}
	var runs []PhasedResult
	for _, mode := range PhasedModes {
		cfg := PhasedConfig{
			Mode:             mode,
			Clients:          4,
			Shards:           2,
			Seed:             7,
			Phases:           smokePhases(),
			MaxWait:          2 * time.Second,
			AdaptiveInterval: 2 * time.Millisecond,
		}
		r, err := RunPhases(cfg)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if len(r.Phases) != 3 {
			t.Fatalf("%s: %d phases, want 3", mode, len(r.Phases))
		}
		for _, pr := range r.Phases {
			if pr.Grants == 0 {
				t.Errorf("%s phase %q: no grants", mode, pr.Phase.Name)
			}
			if len(pr.ShardPolicies) != 2 {
				t.Errorf("%s phase %q: %d shard policies, want 2", mode, pr.Phase.Name, len(pr.ShardPolicies))
			}
		}
		if mode == ModeAdaptive {
			// The two low phases alone think 16 ms, eight 2 ms ticker
			// periods, so no tick means the controller never ran.
			if r.Controller == nil || r.Controller.Ticks == 0 {
				t.Errorf("adaptive run missing controller state: %+v", r.Controller)
			}
		} else if r.Controller != nil {
			t.Errorf("%s run has controller state", mode)
		}
		runs = append(runs, r)
	}

	// Artifact round-trip.
	path := filepath.Join(t.TempDir(), "BENCH_adaptive.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := NewPhasedFile(runs).WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := LoadPhasedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != len(runs) {
		t.Fatalf("round-trip lost runs: %d != %d", len(got.Runs), len(runs))
	}
	if out := RenderPhased(got.Runs); !strings.Contains(out, "adaptive") {
		t.Fatalf("render missing adaptive row:\n%s", out)
	}
}

func TestRunPhasesValidation(t *testing.T) {
	if _, err := RunPhases(PhasedConfig{Mode: "zigzag", Clients: 1}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if _, err := RunPhases(PhasedConfig{Mode: ModeHandoff, Clients: 0}); err == nil {
		t.Fatal("zero clients accepted")
	}
	bad := []Phase{{Name: "x", Resources: 0, OpsPerClient: 1}}
	if _, err := RunPhases(PhasedConfig{Mode: ModeHandoff, Clients: 1, Phases: bad}); err == nil {
		t.Fatal("zero-resource phase accepted")
	}
}

// TestCommittedAdaptiveArtifact is the golden check on the committed
// BENCH_adaptive.json: schema versions load strictly, all three modes
// are present over identical phase schedules, the adaptive run actually
// migrated, and — the acceptance criterion — adaptive matches or beats
// the best static policy's p99 grant latency in every phase (within a
// 10% "matching" tolerance; the artifact is committed, so this is
// deterministic).
func TestCommittedAdaptiveArtifact(t *testing.T) {
	f, err := LoadPhasedFile(filepath.Join("..", "..", "BENCH_adaptive.json"))
	if err != nil {
		t.Fatalf("committed artifact: %v", err)
	}
	byMode := map[string]PhasedResult{}
	for _, r := range f.Runs {
		byMode[r.Mode] = r
	}
	for _, mode := range PhasedModes {
		if _, ok := byMode[mode]; !ok {
			t.Fatalf("artifact missing mode %q", mode)
		}
	}
	ad := byMode[ModeAdaptive]
	if len(ad.Phases) < 3 {
		t.Fatalf("adaptive run has %d phases, want >= 3", len(ad.Phases))
	}
	var migrations uint64
	for pi, apr := range ad.Phases {
		name := apr.Phase.Name
		migrations += apr.Migrations
		best := 0.0
		for _, mode := range []string{ModeHandoff, ModeBroadcast} {
			sr := byMode[mode]
			if len(sr.Phases) != len(ad.Phases) {
				t.Fatalf("%s has %d phases vs adaptive's %d", mode, len(sr.Phases), len(ad.Phases))
			}
			spr := sr.Phases[pi]
			if spr.Phase != apr.Phase {
				t.Fatalf("phase %d schedule mismatch: %s=%+v adaptive=%+v", pi, mode, spr.Phase, apr.Phase)
			}
			if best == 0 || spr.GrantP99 < best {
				best = spr.GrantP99
			}
		}
		const tolerance = 1.10
		if apr.GrantP99 > best*tolerance {
			t.Errorf("phase %q: adaptive p99 %.0fns exceeds best static %.0fns by more than %.0f%%",
				name, apr.GrantP99, best, (tolerance-1)*100)
		}
	}
	if migrations == 0 {
		t.Errorf("adaptive run recorded no migrations across the phase shift")
	}
	if ad.Controller == nil || ad.Controller.Migrations == 0 {
		t.Errorf("adaptive run's controller state missing or idle: %+v", ad.Controller)
	}
}
