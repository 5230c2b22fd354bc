package service

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iqolb/internal/linearize"
	"iqolb/locks"
)

// runHistory executes one randomized concurrent run against a
// single-shard service and returns the recorded history. Leases use a
// long TTL so expiry never interferes; expiry has its own scenario.
// hooks seeds the shard core's grant bugs; during, when non-nil, runs
// alongside the clients (the migration suite's migrator).
func runHistory(t *testing.T, kind locks.Kind, seed int64, mut func(*Config), hooks coreHooks, during func(*Service)) []linearize.Op {
	t.Helper()
	rec := &History{}
	cfg := Config{
		Shards:     1,
		Lock:       kind,
		QueueDepth: 8,
		DefaultTTL: time.Minute,
		NoSweeper:  true,
		OnExpire:   rec.Expired,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.shards[0].core.hooks = hooks

	const clients = 3
	const opsPerClient = 6
	resources := []string{"a", "b"}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1315423911 + int64(c)))
			owner := fmt.Sprintf("c%d", c)
			held := map[string]uint64{} // res -> token currently held
			var past []LeaseOp          // released tokens, for double-release probes
			for i := 0; i < opsPerClient; i++ {
				res := resources[rng.Intn(len(resources))]
				switch {
				case held[res] != 0 && rng.Intn(100) < 80:
					// Release what we hold.
					in := LeaseOp{Verb: VerbRelease, Res: res, Token: held[res]}
					call := rec.Tick()
					err := s.Release(in.Res, in.Token)
					rec.Add(c, call, rec.Tick(), in, ReleaseCode(err))
					past = append(past, in)
					delete(held, res)
				case len(past) > 0 && rng.Intn(100) < 15:
					// Double release of a stale token.
					in := past[rng.Intn(len(past))]
					call := rec.Tick()
					err := s.Release(in.Res, in.Token)
					rec.Add(c, call, rec.Tick(), in, ReleaseCode(err))
				case rng.Intn(100) < 10:
					in := LeaseOp{Verb: VerbRevoke, Res: res}
					call := rec.Tick()
					l, ok, err := s.Revoke(in.Res)
					if err != nil {
						t.Errorf("revoke: %v", err)
						return
					}
					var tok uint64
					if ok {
						tok = l.Token
					}
					rec.Add(c, call, rec.Tick(), in, tok)
				default:
					in := LeaseOp{Verb: VerbAcquire, Res: res, NoWait: rng.Intn(100) < 25}
					opt := AcquireOptions{Wait: !in.NoWait, MaxWait: 2 * time.Millisecond}
					call := rec.Tick()
					l, err := s.Acquire(in.Res, owner, opt)
					ret := rec.Tick()
					if err != nil {
						rec.Add(c, call, ret, in, AcquireCode(err))
					} else {
						rec.Add(c, call, ret, in, l.Token)
						if old := held[res]; old != 0 {
							// A re-grant while we still track a token means the
							// old lease was revoked out from under us (the
							// checker verifies that); keep the dead token as a
							// double-release probe.
							past = append(past, LeaseOp{Verb: VerbRelease, Res: res, Token: old})
						}
						held[res] = l.Token
					}
				}
				for k := rng.Intn(3); k > 0; k-- {
					runtime.Gosched()
				}
			}
			// Drop remaining leases so later histories in shared services
			// would start clean; here it also exercises final releases.
			for res, tok := range held {
				in := LeaseOp{Verb: VerbRelease, Res: res, Token: tok}
				call := rec.Tick()
				err := s.Release(in.Res, in.Token)
				rec.Add(c, call, rec.Tick(), in, ReleaseCode(err))
			}
		}(c)
	}
	if during != nil {
		during(s)
	}
	wg.Wait()
	checkConservation(t, s, fmt.Sprintf("seed %d final", seed))
	return rec.Ops()
}

// TestLinearizability runs 500 randomized histories per lock primitive
// under the race detector and checks each against the sequential lease
// model. Failure prints the seed for replay.
func TestLinearizability(t *testing.T) {
	const histories = 500
	for _, kind := range locks.Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			for i := 0; i < histories; i++ {
				seed := int64(i) + 1
				h := runHistory(t, kind, seed, nil, coreHooks{}, nil)
				if ok, why := linearize.Check(LeaseModel{}, h); !ok {
					t.Fatalf("seed %d: history not linearizable:\n%s\nhistory:\n%s", seed, why, dumpHistory(h))
				}
			}
		})
	}
}

// TestLinearizabilityBroadcast covers the baseline grant policy with a
// smaller budget: the re-contention path has different interleavings.
func TestLinearizabilityBroadcast(t *testing.T) {
	const histories = 100
	for i := 0; i < histories; i++ {
		seed := int64(i) + 10_000
		h := runHistory(t, locks.KindMCS, seed, func(c *Config) { c.Policy = PolicyBroadcast }, coreHooks{}, nil)
		if ok, why := linearize.Check(LeaseModel{}, h); !ok {
			t.Fatalf("seed %d: broadcast history not linearizable:\n%s\nhistory:\n%s", seed, why, dumpHistory(h))
		}
	}
}

// TestLinearizabilityCatchesBrokenHandoff is the harness's own
// regression test: with the seeded hand-off bug enabled (the releaser
// "forgets" to record the transfer, so the grantee's lease is not the
// holder), randomized histories must fail the check. If this test ever
// passes with the bug enabled, the harness has lost its teeth.
func TestLinearizabilityCatchesBrokenHandoff(t *testing.T) {
	const attempts = 50
	for i := 0; i < attempts; i++ {
		seed := int64(i) + 20_000
		h := runHistory(t, locks.KindMCS, seed, nil, coreHooks{brokenHandoff: true}, nil)
		if ok, _ := linearize.Check(LeaseModel{}, h); !ok {
			return // caught, as required
		}
	}
	t.Fatalf("seeded hand-off bug survived %d randomized histories; the harness is blind", attempts)
}

// TestCrashClientExpiresExactlyOnce is the crash-client scenario: a
// holder vanishes without releasing, its lease must expire exactly once,
// the queued waiters are granted in turn, and the full concurrent
// history (including the expiry and the crasher's late release)
// linearizes against the lease model.
func TestCrashClientExpiresExactlyOnce(t *testing.T) {
	rec := &History{}
	var expiries atomic.Int64
	clk := NewFakeClock()
	s, err := New(Config{
		Shards:     1,
		QueueDepth: 8,
		DefaultTTL: time.Second,
		Clock:      clk,
		NoSweeper:  true,
		OnExpire: func(l Lease) {
			expiries.Add(1)
			rec.Expired(l)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The crasher takes the lease and never releases.
	call := rec.Tick()
	crashed, err := s.Acquire("r", "crasher", AcquireOptions{TTL: time.Second})
	rec.Add(0, call, rec.Tick(), LeaseOp{Verb: VerbAcquire, Res: "r"}, crashed.Token)
	if err != nil {
		t.Fatal(err)
	}

	const patients = 2
	var wg sync.WaitGroup
	for p := 0; p < patients; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			in := LeaseOp{Verb: VerbAcquire, Res: "r"}
			call := rec.Tick()
			l, err := s.Acquire("r", fmt.Sprintf("p%d", p), AcquireOptions{Wait: true})
			ret := rec.Tick()
			if err != nil {
				rec.Add(1+p, call, ret, in, AcquireCode(err))
				t.Errorf("patient %d: %v", p, err)
				return
			}
			rec.Add(1+p, call, ret, in, l.Token)
			rin := LeaseOp{Verb: VerbRelease, Res: "r", Token: l.Token}
			call = rec.Tick()
			rerr := s.Release(rin.Res, rin.Token)
			rec.Add(1+p, call, rec.Tick(), rin, ReleaseCode(rerr))
		}(p)
	}
	waitQueued(t, s, "r", patients)
	clk.Advance(1100 * time.Millisecond)
	if n := s.SweepExpired(); n != 1 {
		t.Fatalf("sweep expired %d, want 1", n)
	}
	wg.Wait()
	// Redundant sweeps must not double-expire.
	s.SweepExpired()
	s.SweepExpired()

	// The crasher comes back and learns its lease died.
	rin := LeaseOp{Verb: VerbRelease, Res: "r", Token: crashed.Token}
	call = rec.Tick()
	rerr := s.Release(rin.Res, rin.Token)
	rec.Add(0, call, rec.Tick(), rin, ReleaseCode(rerr))
	if !errors.Is(rerr, ErrLeaseExpired) {
		t.Fatalf("crasher's late release: %v, want ErrLeaseExpired", rerr)
	}

	if n := expiries.Load(); n != 1 {
		t.Fatalf("lease expired %d times, want exactly once", n)
	}
	h := rec.Ops()
	if ok, why := linearize.Check(LeaseModel{}, h); !ok {
		t.Fatalf("crash-client history not linearizable:\n%s\nhistory:\n%s", why, dumpHistory(h))
	}
}

func dumpHistory(h []linearize.Op) string {
	var b strings.Builder
	for _, op := range h {
		fmt.Fprintf(&b, "  client %d [%d,%d] %v -> %v\n", op.ClientID, op.Call, op.Ret, op.Input, op.Output)
	}
	return strings.TrimRight(b.String(), "\n")
}
