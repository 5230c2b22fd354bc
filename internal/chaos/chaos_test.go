package chaos

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"iqolb/internal/service"
)

func TestKindParse(t *testing.T) {
	for _, k := range Kinds() {
		got, err := Parse(k.String())
		if err != nil || got != k {
			t.Fatalf("Parse(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := Parse("gremlins"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	ks, err := ParseKinds("all")
	if err != nil || len(ks) != len(Kinds()) {
		t.Fatalf("ParseKinds(all) = %v, %v", ks, err)
	}
	ks, err = ParseKinds("reset,truncate")
	if err != nil || len(ks) != 2 || ks[0] != Reset || ks[1] != Truncate {
		t.Fatalf("ParseKinds(reset,truncate) = %v, %v", ks, err)
	}
	if _, err := ParseKinds("reset,,"); err == nil {
		t.Fatal("empty kind accepted")
	}
}

func TestPlanValidate(t *testing.T) {
	if err := (Plan{}).Validate(); err != nil {
		t.Fatalf("zero plan invalid: %v", err)
	}
	if err := (Plan{Rate: 1.5}).Validate(); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if err := (Plan{Rate: -0.1}).Validate(); err == nil {
		t.Fatal("negative rate accepted")
	}
}

// frame builds a wire-shaped frame (the relay is frame-aware).
func frame(payload []byte) []byte {
	b := []byte{1, 9, byte(len(payload) >> 8), byte(len(payload))}
	return append(b, payload...)
}

// TestProxyPassThrough proves a kind-less proxy is a faithful pipe for
// framed traffic and injects nothing.
func TestProxyPassThrough(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(c, c) // echo
		}
	}()

	p, err := New(ln.Addr().String(), Plan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	for i := 0; i < 10; i++ {
		msg := frame([]byte{byte(i), 0xab, 0xcd})
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		if _, err := io.ReadFull(conn, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("frame %d: got %x, want %x", i, got, msg)
		}
	}
	st := p.Stats()
	if st.Total() != 0 {
		t.Fatalf("kind-less proxy injected %d faults: %v", st.Total(), st.Injections)
	}
	if st.Conns != 1 {
		t.Fatalf("conns = %d, want 1", st.Conns)
	}
}

// reportBytes runs a campaign and renders its artifact.
func reportBytes(t *testing.T, cfg CampaignConfig) []byte {
	t.Helper()
	rep := RunCampaign(cfg)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCampaignDeterminism is the artifact contract: the same seeds must
// produce a byte-identical report across runs, retry timing and
// scheduler jitter notwithstanding.
func TestCampaignDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs real sockets and timeouts")
	}
	cfg := CampaignConfig{
		Kinds:        []Kind{Latency, Truncate, Reset},
		Seeds:        []uint64{1, 2},
		Clients:      2,
		OpsPerClient: 3,
	}
	// Timing differs between the two runs; the report does not, because
	// it classifies by booleans over counters and injection logs.
	a := reportBytes(t, cfg)
	b := reportBytes(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed campaigns differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestCampaignAllKinds runs every fault kind once and asserts the
// invariants the campaign exists to check: every run classifies, lease
// conservation holds, and every per-resource history linearizes.
func TestCampaignAllKinds(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs real sockets and timeouts")
	}
	rep := RunCampaign(CampaignConfig{
		Seeds:        []uint64{7},
		Clients:      2,
		OpsPerClient: 3,
	})
	if want := len(Kinds()) + 1; len(rep.Runs) != want {
		t.Fatalf("runs = %d, want %d", len(rep.Runs), want)
	}
	valid := map[string]bool{
		OutcomeClean: true, OutcomeAbsorbed: true,
		OutcomeRecovered: true, OutcomeDegraded: true,
	}
	for _, run := range rep.Runs {
		if !valid[run.Outcome] {
			t.Errorf("%s/%d: unclassified outcome %q", run.Kind, run.Seed, run.Outcome)
		}
		if run.Conservation != "ok" {
			t.Errorf("%s/%d: conservation violated: %s", run.Kind, run.Seed, run.Conservation)
		}
		if !run.Linearizable {
			t.Errorf("%s/%d: history not linearizable: %v", run.Kind, run.Seed, run.Failures)
		}
	}
	if rep.Failures != 0 {
		t.Errorf("report failures = %d, want 0", rep.Failures)
	}
}

// TestCampaignPipelined is the pipelined chaos contract: with every
// client connection running a wire-v3 window, faults that land mid-
// batch — a truncation cutting several in-flight frames at once, a
// reset with a full window outstanding — must still classify, conserve
// leases, and linearize, and the artifact must stay deterministic.
func TestCampaignPipelined(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign runs real sockets and timeouts")
	}
	cfg := CampaignConfig{
		Kinds:        []Kind{Truncate, Reset, Latency},
		Seeds:        []uint64{3, 5},
		Clients:      2,
		OpsPerClient: 4,
		Window:       4,
	}
	rep := RunCampaign(cfg)
	valid := map[string]bool{
		OutcomeClean: true, OutcomeAbsorbed: true,
		OutcomeRecovered: true, OutcomeDegraded: true,
	}
	for _, run := range rep.Runs {
		if !valid[run.Outcome] {
			t.Errorf("%s/%d: unclassified outcome %q", run.Kind, run.Seed, run.Outcome)
		}
		if run.Conservation != "ok" {
			t.Errorf("%s/%d: conservation violated: %s", run.Kind, run.Seed, run.Conservation)
		}
		if !run.Linearizable {
			t.Errorf("%s/%d: history not linearizable: %v", run.Kind, run.Seed, run.Failures)
		}
	}
	if rep.Failures != 0 {
		t.Errorf("report failures = %d, want 0", rep.Failures)
	}
	// Truncation mid-batch must surface as a retryable transport fault
	// the resilient layer absorbs or recovers from — never a degraded
	// (budget-exhausted) run at these small scales. No host speed can
	// fail this: a client's proxy truncates at most 4 responses in all,
	// and an op has 12 attempts.
	for _, run := range rep.Runs {
		if run.Kind == string(Truncate) && run.Outcome == OutcomeDegraded {
			t.Errorf("truncate/%d: pipelined truncation degraded instead of recovering", run.Seed)
		}
	}
	// And the pipelined artifact obeys the same byte-identity contract.
	a := reportBytes(t, cfg)
	b := reportBytes(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed pipelined campaigns differ:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}

// TestRecordedWaitSpansAdmission: the campaign's recording backend logs a
// queued acquire from its admission to the end of its wait, so the
// release that hands it the lease lies inside its interval.
func TestRecordedWaitSpansAdmission(t *testing.T) {
	svc, err := service.New(service.Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	rec := &service.History{}
	b := &recordingBackend{svc: svc, rec: rec}
	held, err := b.Acquire("r", "c0", service.AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, p, err := b.Admit("r", "c1", service.AcquireOptions{Wait: true})
	if err != nil || p == nil {
		t.Fatalf("acquire of a held resource: pending %v, err %v; want queued", p, err)
	}
	if n := len(rec.Ops()); n != 1 {
		t.Fatalf("%d ops recorded before the queued acquire's wait ended, want 1", n)
	}
	if err := b.ReleaseFenced("r", held.Token, held.Fence); err != nil {
		t.Fatal(err)
	}
	l, err := p.Wait()
	if err != nil {
		t.Fatal(err)
	}
	ops := rec.Ops()
	if len(ops) != 3 {
		t.Fatalf("%d ops recorded, want 3", len(ops))
	}
	rel, acq := ops[1], ops[2]
	if !(acq.Call < rel.Call && rel.Ret < acq.Ret) || acq.Output != any(l.Token) {
		t.Fatalf("queued acquire %+v does not span the release %+v and return its lease %d", acq, rel, l.Token)
	}
}
