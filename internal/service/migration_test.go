package service

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"iqolb/internal/linearize"
	"iqolb/locks"
)

// This file is the live-migration suite required by the adaptive
// redesign: randomized policy flips (including degrade/restore cycles)
// in the middle of concurrent lease traffic, with every history checked
// against the sequential lease model and lease conservation verified
// after every flip. Run it under -race; the CI adaptive job does.

// checkConservation asserts the lease-conservation invariant at a
// snapshot instant: every lease ever granted is exactly one of live,
// released, expired, or revoked. Counter updates share the grant's
// critical section, so the identity must hold exactly at any guard
// instant — including immediately after a policy flip.
func checkConservation(t *testing.T, s *Service, when string) {
	t.Helper()
	if err := s.Snapshot().Conserved(); err != nil {
		t.Errorf("%s: lease conservation violated: %v", when, err)
	}
}

// runMigrationHistory is runHistory with a migrator in the loop: while
// the clients run their randomized ops against a single-shard service,
// the migrator flips the shard between handoff and broadcast — and
// occasionally through a degrade/restore cycle — verifying lease
// conservation after every flip.
func runMigrationHistory(t *testing.T, kind locks.Kind, seed int64) []linearize.Op {
	t.Helper()
	return runHistory(t, kind, seed, nil, coreHooks{}, func(s *Service) {
		rng := rand.New(rand.NewSource(seed * 2654435761))
		flips := 4 + rng.Intn(5)
		for f := 0; f < flips; f++ {
			switch rng.Intn(5) {
			case 0:
				// Degrade/restore cycle: flush everything queued, shed a
				// while, come back.
				if err := s.DegradeShard(0, "migration suite"); err != nil {
					t.Errorf("degrade: %v", err)
				}
				checkConservation(t, s, fmt.Sprintf("seed %d flip %d (degrade)", seed, f))
				runtime.Gosched()
				if err := s.RestoreShard(0); err != nil {
					t.Errorf("restore: %v", err)
				}
				checkConservation(t, s, fmt.Sprintf("seed %d flip %d (restore)", seed, f))
			default:
				p := PolicyHandoff
				if rng.Intn(2) == 0 {
					p = PolicyBroadcast
				}
				if err := s.MigrateShard(0, p); err != nil {
					t.Errorf("migrate to %s: %v", p, err)
				}
				checkConservation(t, s, fmt.Sprintf("seed %d flip %d (→%s)", seed, f, p))
			}
			for k := rng.Intn(4); k > 0; k-- {
				runtime.Gosched()
			}
		}
	})
}

// TestMigrationLinearizability runs 500 randomized histories with live
// policy migration mid-traffic, cycling through every lock primitive,
// and checks each against the sequential lease model. Failure prints
// the seed for replay.
func TestMigrationLinearizability(t *testing.T) {
	const histories = 500
	kinds := locks.Kinds()
	for i := 0; i < histories; i++ {
		seed := int64(i) + 30_000
		kind := kinds[i%len(kinds)]
		h := runMigrationHistory(t, kind, seed)
		if ok, why := linearize.Check(LeaseModel{}, h); !ok {
			t.Fatalf("seed %d (%s): migration history not linearizable:\n%s\nhistory:\n%s",
				seed, kind, why, dumpHistory(h))
		}
	}
}

// TestMigrationHandoffToBroadcast queues waiters under handoff, flips
// to broadcast mid-wait, and verifies the release wakes the pack and
// every waiter is eventually granted — no grant lost across the flip.
func TestMigrationHandoffToBroadcast(t *testing.T) {
	testMigrationMidWait(t, PolicyHandoff, PolicyBroadcast)
}

// TestMigrationBroadcastToHandoff is the reverse direction: waiters
// parked under broadcast (possibly holding unconsumed retry wake-ups)
// must be granted one at a time after the flip to handoff.
func TestMigrationBroadcastToHandoff(t *testing.T) {
	testMigrationMidWait(t, PolicyBroadcast, PolicyHandoff)
}

func testMigrationMidWait(t *testing.T, from, to Policy) {
	s, err := New(Config{Shards: 1, Policy: from, QueueDepth: 8, NoSweeper: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	hold, err := s.Acquire("r", "holder", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 3
	grants := make(chan Lease, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l, err := s.Acquire("r", fmt.Sprintf("w%d", i), AcquireOptions{Wait: true})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			grants <- l
			if err := s.Release("r", l.Token); err != nil {
				t.Errorf("waiter %d release: %v", i, err)
			}
		}(i)
	}
	waitQueued(t, s, "r", waiters)

	if err := s.MigrateShard(0, to); err != nil {
		t.Fatal(err)
	}
	checkConservation(t, s, "after flip")
	if p, degraded, err := s.ShardPolicy(0); err != nil || degraded || p != to {
		t.Fatalf("ShardPolicy = %v,%v,%v; want %v, healthy", p, degraded, err, to)
	}
	if err := s.Release("r", hold.Token); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(grants)
	seen := map[uint64]bool{}
	for l := range grants {
		if seen[l.Token] {
			t.Fatalf("token %d granted twice", l.Token)
		}
		seen[l.Token] = true
	}
	if len(seen) != waiters {
		t.Fatalf("granted %d waiters, want %d", len(seen), waiters)
	}
	checkConservation(t, s, "final")
	snap := s.Snapshot()
	if snap.Totals.Migrations != 1 {
		t.Fatalf("Migrations = %d, want 1", snap.Totals.Migrations)
	}
	if snap.Shards[0].Policy != string(to) || snap.Shards[0].Epoch != 1 {
		t.Fatalf("shard snapshot policy=%q epoch=%d, want %q epoch=1",
			snap.Shards[0].Policy, snap.Shards[0].Epoch, to)
	}
}

// TestDegradeRestoreCycle drives the full administrative cycle: degrade
// flushes the queue and sheds, restore returns the shard to
// primitive-guarded service, and the service is fully usable after.
func TestDegradeRestoreCycle(t *testing.T) {
	s, err := New(Config{Shards: 1, QueueDepth: 8, NoSweeper: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	hold, err := s.Acquire("r", "holder", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var waiterErr error
	go func() {
		defer wg.Done()
		_, waiterErr = s.Acquire("r", "w", AcquireOptions{Wait: true})
	}()
	waitQueued(t, s, "r", 1)

	if err := s.DegradeShard(0, "test cycle"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if !errors.Is(waiterErr, ErrDegraded) {
		t.Fatalf("flushed waiter got %v, want ErrDegraded", waiterErr)
	}
	// Degraded: new waiters are shed, immediate grants still work.
	if _, err := s.Acquire("r", "x", AcquireOptions{Wait: true}); !errors.Is(err, ErrShed) {
		t.Fatalf("degraded acquire on held resource: %v, want ErrShed", err)
	}
	if err := s.Release("r", hold.Token); err != nil {
		t.Fatal(err)
	}
	free, err := s.Acquire("r", "y", AcquireOptions{})
	if err != nil {
		t.Fatalf("degraded immediate grant: %v", err)
	}

	if err := s.RestoreShard(0); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Degraded != 0 || snap.Totals.Degrades != 1 || snap.Totals.Restores != 1 {
		t.Fatalf("after restore: degraded=%d degrades=%d restores=%d, want 0/1/1",
			snap.Degraded, snap.Totals.Degrades, snap.Totals.Restores)
	}
	// Restored: queueing works again.
	wg.Add(1)
	go func() {
		defer wg.Done()
		l, err := s.Acquire("r", "z", AcquireOptions{Wait: true})
		if err != nil {
			t.Errorf("post-restore waiter: %v", err)
			return
		}
		s.Release("r", l.Token)
	}()
	waitQueued(t, s, "r", 1)
	if err := s.Release("r", free.Token); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	checkConservation(t, s, "after cycle")

	// Restore of a healthy shard is a no-op.
	if err := s.RestoreShard(0); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Totals.Restores; got != 1 {
		t.Fatalf("no-op restore bumped Restores to %d", got)
	}
}

// TestMigrateValidation covers the typed errors and no-op cases of the
// migration verbs.
func TestMigrateValidation(t *testing.T) {
	s, err := New(Config{Shards: 2, NoSweeper: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ce *ConfigError
	if err := s.MigrateShard(9, PolicyBroadcast); !errors.As(err, &ce) || ce.Field != "shard" {
		t.Fatalf("out-of-range shard: %v", err)
	}
	if err := s.MigrateShard(0, Policy("zigzag")); !errors.As(err, &ce) || ce.Field != "policy" {
		t.Fatalf("bad policy: %v", err)
	}
	if err := s.MigrateShard(0, PolicyHandoff); err != nil { // already handoff
		t.Fatal(err)
	}
	if got := s.Snapshot().Totals.Migrations; got != 0 {
		t.Fatalf("no-op migration counted: %d", got)
	}
	if err := s.DegradeShard(-1, "x"); !errors.As(err, &ce) || ce.Field != "shard" {
		t.Fatalf("degrade out-of-range: %v", err)
	}
	if err := s.RestoreShard(99); !errors.As(err, &ce) || ce.Field != "shard" {
		t.Fatalf("restore out-of-range: %v", err)
	}
	// Migrating a degraded shard records the policy for restore.
	if err := s.DegradeShard(1, "park"); err != nil {
		t.Fatal(err)
	}
	if err := s.MigrateShard(1, PolicyBroadcast); err != nil {
		t.Fatal(err)
	}
	if err := s.RestoreShard(1); err != nil {
		t.Fatal(err)
	}
	if p, degraded, err := s.ShardPolicy(1); err != nil || degraded || p != PolicyBroadcast {
		t.Fatalf("restored shard = %v,%v,%v; want broadcast, healthy", p, degraded, err)
	}
}

// TestAdaptiveServiceMigratesUnderLoad is the end-to-end loop: a
// service built with Config.Adaptive under sustained single-resource
// contention must migrate the hot shard from broadcast to hand-off on
// its own, and report controller state in its snapshot.
func TestAdaptiveServiceMigratesUnderLoad(t *testing.T) {
	s, err := New(Config{
		Shards:           1,
		Policy:           PolicyBroadcast,
		QueueDepth:       32,
		Adaptive:         true,
		AdaptiveInterval: 2 * time.Millisecond,
		NoSweeper:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			owner := fmt.Sprintf("c%d", c)
			for {
				select {
				case <-stop:
					return
				default:
				}
				l, err := s.Acquire("hot", owner, AcquireOptions{Wait: true, MaxWait: 50 * time.Millisecond})
				if err != nil {
					continue
				}
				s.Release("hot", l.Token)
			}
		}(c)
	}
	// The controller samples every 2 ms on the real clock, so the 5 s
	// bound is ~2 500 ticks of a one-shard, eight-client hot spot; only a
	// controller that never migrates reaches it.
	deadline := time.Now().Add(5 * time.Second)
	migrated := false
	for time.Now().Before(deadline) {
		if p, degraded, _ := s.ShardPolicy(0); p == PolicyHandoff && !degraded {
			migrated = true
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if !migrated {
		t.Fatalf("controller never migrated the hot shard to handoff; state: %+v", s.ControllerState())
	}
	snap := s.Snapshot()
	if snap.Controller == nil || snap.Controller.Ticks == 0 || snap.Controller.Migrations == 0 {
		t.Fatalf("snapshot controller state missing or idle: %+v", snap.Controller)
	}
	if snap.Controller.Tuning == nil {
		t.Fatalf("snapshot controller tuning missing")
	}
	checkConservation(t, s, "adaptive load")
}
