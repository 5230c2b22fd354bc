package loadgen

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"testing"

	"iqolb/internal/service"
	"iqolb/locks"
)

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func TestResolveParams(t *testing.T) {
	p, err := Config{Bench: "hotlock", Clients: 3, Scale: 4}.resolveParams()
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalCS%3 != 0 || p.TotalCS == 0 {
		t.Fatalf("TotalCS = %d", p.TotalCS)
	}
	if _, err := (Config{Bench: "hotlock"}).resolveParams(); err == nil {
		t.Fatal("clients 0 accepted")
	}
	if _, err := (Config{Bench: "doom", Clients: 2}).resolveParams(); err == nil {
		t.Fatal("unknown bench accepted")
	}
}

func TestRunInProcess(t *testing.T) {
	for _, policy := range []service.Policy{service.PolicyHandoff, service.PolicyBroadcast} {
		res, err := Run(Config{
			Bench:   "hotlock",
			Clients: 4,
			Lock:    locks.KindMCS,
			Policy:  policy,
			Scale:   64,
			Seed:    1,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Grants == 0 {
			t.Fatalf("%s: no grants", policy)
		}
		if res.Errors != 0 { // waits are capped at 10 s, not at a host-speed guess
			t.Fatalf("%s: %d client errors", policy, res.Errors)
		}
		if res.Throughput <= 0 || res.WallNS <= 0 {
			t.Fatalf("%s: throughput %f wall %d", policy, res.Throughput, res.WallNS)
		}
		if res.Fairness <= 0 || res.Fairness > 1 {
			t.Fatalf("%s: fairness %f", policy, res.Fairness)
		}
		if res.GrantWait.Count != res.Grants {
			t.Fatalf("%s: histogram count %d != grants %d", policy, res.GrantWait.Count, res.Grants)
		}
		var sum uint64
		for _, n := range res.PerClientOps {
			sum += n
		}
		if sum != res.Grants {
			t.Fatalf("%s: per-client sum %d != grants %d", policy, sum, res.Grants)
		}
		if res.Server == nil {
			t.Fatalf("%s: in-process run missing server totals", policy)
		}
		// Completed waits end in grant, shed, or timeout; the server saw
		// every acquire.
		if res.Server.Counters.Acquires == 0 || res.Server.Counters.Grants != res.Grants {
			t.Fatalf("%s: server counters %+v vs client grants %d", policy, res.Server.Counters, res.Grants)
		}
		// Policy-specific mechanics actually engaged (or the run was
		// uncontended, in which case both counters may be zero — hotlock
		// with 4 clients is contended in practice, so check loosely).
		if policy == service.PolicyHandoff && res.Server.Counters.BroadcastWakeups != 0 {
			t.Fatalf("handoff run recorded broadcast wakeups")
		}
		if policy == service.PolicyBroadcast && res.Server.Counters.Handoffs != 0 {
			t.Fatalf("broadcast run recorded handoffs")
		}
	}
}

func TestRunExternalAddr(t *testing.T) {
	// Boot our own server and point the generator at it.
	svc, err := service.New(service.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := service.NewServer(svc)
	ln, err := listenLoopback()
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	res, err := Run(Config{Bench: "nullcs", Clients: 2, Scale: 64, Addr: ln.Addr().String(), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Grants == 0 || res.Errors != 0 {
		t.Fatalf("external run: %+v", res)
	}
	if res.Server != nil {
		t.Fatal("external run should not report server totals")
	}
}

func TestFileRoundTrip(t *testing.T) {
	res, err := Run(Config{Bench: "nullcs", Clients: 2, Lock: locks.KindTTS, Policy: service.PolicyHandoff, Scale: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFile([]Result{res})
	var buf bytes.Buffer
	if err := f.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_service.json")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Results) != 1 || got.Results[0].Grants != res.Grants || got.Results[0].GrantWait.Count != res.GrantWait.Count {
		t.Fatalf("round trip mismatch: %+v", got.Results[0])
	}
	bad := bytes.Replace(buf.Bytes(), []byte(`"schema_version": 1`), []byte(`"schema_version": 99`), 1)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("wrong file schema version accepted")
	}
}

// TestCommittedArtifactShapes pins the on-disk JSON shape of the two
// loadgen artifacts to the committed files: BENCH_adaptive.json loads
// under the strict version checks, and re-encoding what was loaded
// reproduces the file byte for byte — so a field reordered, renamed or
// dropped by a schema refactor fails here. BENCH_service.json predates
// counters the service has since grown (they re-encode as extra zero
// fields), so it is held only to loading with its rows intact.
func TestCommittedArtifactShapes(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_adaptive.json")
	phased, err := LoadPhasedFile(path)
	if err != nil {
		t.Fatalf("committed artifact: %v", err)
	}
	var buf bytes.Buffer
	if err := phased.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s: re-encoding the loaded artifact does not reproduce the file", path)
	}
	f, err := LoadFile(filepath.Join("..", "..", "BENCH_service.json"))
	if err != nil {
		t.Fatalf("committed artifact: %v", err)
	}
	if len(f.Results) == 0 || f.Results[0].Grants == 0 || f.Results[0].Server == nil {
		t.Fatalf("BENCH_service.json lost its rows: %+v", f.Results)
	}
}
