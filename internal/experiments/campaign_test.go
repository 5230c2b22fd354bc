package experiments

import (
	"bytes"
	"testing"

	"iqolb/internal/faults"
)

// campaignBase is a small contended spec: 4 processors fighting over one
// hot lock under IQOLB gives every fault kind an opportunity to fire
// (GrantReorder needs at least two simultaneously queued waiters).
func campaignBase() Spec {
	return Spec{Bench: "hotlock", System: "iqolb", Procs: 4, Scale: 16}
}

// TestCampaignDegradeRecovers: with graceful degradation armed, every
// fault kind ends in oracle-verified recovery or a typed diagnosis —
// zero silent divergences, zero untyped errors, zero bare cycle-limit
// hangs.
func TestCampaignDegradeRecovers(t *testing.T) {
	rep, err := RunCampaign(campaignBase(), CampaignConfig{Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Fatalf("campaign reported %d failures:\n%+v", rep.Failures, rep.Outcomes)
	}
	if len(rep.Outcomes) != len(faults.Kinds()) {
		t.Fatalf("got %d outcomes, want one per kind (%d)", len(rep.Outcomes), len(faults.Kinds()))
	}
	byKind := map[faults.Kind]FaultOutcome{}
	for _, o := range rep.Outcomes {
		byKind[o.Kind] = o
		if o.Status == OutcomeCycleLimit {
			t.Errorf("%s: bare cycle-limit hang", o.Kind)
		}
	}
	// A wedged delay must recover via degradation, not starve.
	if o := byKind[faults.StuckDelay]; o.Status != OutcomeRecovered {
		t.Errorf("stuck-delay outcome = %+v, want %s", o, OutcomeRecovered)
	}
	// Dropped flushes are absorbed by the delay time-out backstop.
	if o := byKind[faults.FlushDropped]; o.Status != OutcomeAbsorbed && o.Status != OutcomeRecovered {
		t.Errorf("flush-dropped outcome = %+v, want absorbed or recovered", o)
	}
	// Corrupting state (tear-off sent as ownership) cannot be recovered
	// by degradation; it must die as a typed protocol violation.
	if o := byKind[faults.TearOffOwnership]; o.Status != OutcomeProtocolViolation {
		t.Errorf("tearoff-ownership outcome = %+v, want %s", o, OutcomeProtocolViolation)
	}
	// Predictor corruption and extra bus latency only cost performance.
	for _, k := range []faults.Kind{faults.PredictorCorrupt, faults.BusLatency} {
		o := byKind[k]
		if o.Status != OutcomeAbsorbed && o.Status != OutcomeClean && o.Status != OutcomeRecovered {
			t.Errorf("%s outcome = %+v, want a surviving status", k, o)
		}
	}
}

// TestCampaignTypedFailuresWithoutDegrade: with degradation off, the
// wedging faults die with typed diagnoses — never a bare cycle-limit
// hang or a silently wrong result.
func TestCampaignTypedFailuresWithoutDegrade(t *testing.T) {
	rep, err := RunCampaign(campaignBase(), CampaignConfig{
		Kinds: []faults.Kind{faults.StuckDelay, faults.TearOffOwnership},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failures != 0 {
		t.Fatalf("campaign reported %d failures:\n%+v", rep.Failures, rep.Outcomes)
	}
	for _, o := range rep.Outcomes {
		switch o.Status {
		case OutcomeProtocolViolation, OutcomeDeadlock:
			if o.Error == "" {
				t.Errorf("%s: typed failure with empty error text", o.Kind)
			}
		case OutcomeCycleLimit, OutcomeDivergence, OutcomeError:
			t.Errorf("%s: %s is not a typed detection: %s", o.Kind, o.Status, o.Error)
		}
	}
}

// TestCampaignDeterministic: the same spec + config produce a
// byte-identical report (no wall-clock noise, stable iteration order).
func TestCampaignDeterministic(t *testing.T) {
	cfg := CampaignConfig{
		Kinds:   []faults.Kind{faults.StuckDelay, faults.BusLatency},
		Seeds:   []uint64{1, 2},
		Degrade: true,
	}
	a, err := RunCampaign(campaignBase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCampaign(campaignBase(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	bj, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatalf("reports differ:\n--- a ---\n%s\n--- b ---\n%s", aj, bj)
	}
	if len(a.Outcomes) != 4 {
		t.Fatalf("got %d outcomes, want 2 kinds x 2 seeds", len(a.Outcomes))
	}
}

// TestFaultSpecCacheable: a faulted spec resolves with the plan in its
// machine configuration.
func TestFaultSpecCacheable(t *testing.T) {
	s := campaignBase()
	s.Faults = &faults.Plan{Seed: 3, Kinds: []faults.Kind{faults.BusLatency}}
	r, err := s.resolve()
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.Faults == nil || r.cfg.Faults.Seed != 3 {
		t.Fatalf("resolved config lost the fault plan: %+v", r.cfg.Faults)
	}
}
