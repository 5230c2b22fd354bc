package service

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iqolb/locks"
)

// newTestService builds a NoSweeper service on a FakeClock with small
// bounds; tests drive expiry and starvation by hand.
func newTestService(t *testing.T, mut func(*Config)) (*Service, *FakeClock) {
	t.Helper()
	clk := NewFakeClock()
	cfg := Config{
		Shards:          2,
		QueueDepth:      4,
		DefaultTTL:      time.Second,
		MaxTTL:          time.Minute,
		StarvationBound: 10 * time.Second,
		Clock:           clk,
		NoSweeper:       true,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, clk
}

// TestShardMapping pins resource → shard at the default shard count, for
// names the committed BENCH_* artifacts were taken on (loadgen's res-N
// and res-C-W, the chaos campaign's rN): the hash or its reduction must
// not drift under them. Four of the five hash above 2³¹, where a signed
// 32-bit reduction would go negative.
func TestShardMapping(t *testing.T) {
	s, _ := newTestService(t, func(c *Config) { c.Shards = 0 })
	for resource, want := range map[string]int{
		"res-0": 4, "res-1": 7, "res-0-0": 1, "res-3-1": 3, "r0": 7,
	} {
		if got := s.shardFor(resource); got != s.shards[want] {
			t.Errorf("%q: not on shard %d", resource, want)
		}
	}
}

func TestAcquireReleaseBasic(t *testing.T) {
	s, _ := newTestService(t, nil)
	l, err := s.Acquire("db", "alice", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Resource != "db" || l.Owner != "alice" || l.Token == 0 {
		t.Fatalf("lease = %+v", l)
	}
	// Second acquire without wait: typed busy.
	if _, err := s.Acquire("db", "bob", AcquireOptions{}); !errors.Is(err, ErrNoWait) {
		t.Fatalf("busy acquire: %v, want ErrNoWait", err)
	}
	if err := s.Release("db", l.Token); err != nil {
		t.Fatal(err)
	}
	// Double release: typed.
	if err := s.Release("db", l.Token); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("double release: %v, want ErrNotHeld", err)
	}
	// Reacquire works.
	if _, err := s.Acquire("db", "bob", AcquireOptions{}); err != nil {
		t.Fatal(err)
	}
}

// TestHandoffFIFO pins the direct hand-off order: queued waiters are
// granted in admission order, one transfer each.
func TestHandoffFIFO(t *testing.T) {
	s, _ := newTestService(t, func(c *Config) { c.QueueDepth = 16 })
	l, err := s.Acquire("r", "holder", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 5
	order := make(chan int, waiters)
	started := make(chan struct{}, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			started <- struct{}{}
			wl, err := s.Acquire("r", fmt.Sprintf("w%d", i), AcquireOptions{Wait: true})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			order <- i
			if err := s.Release("r", wl.Token); err != nil {
				t.Errorf("waiter %d release: %v", i, err)
			}
		}(i)
		<-started
		// Wait until the waiter is actually queued so admission order is
		// deterministic.
		waitQueued(t, s, "r", i+1)
	}
	if err := s.Release("r", l.Token); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(order)
	i := 0
	for got := range order {
		if got != i {
			t.Fatalf("grant %d went to waiter %d (hand-off order violated)", i, got)
		}
		i++
	}
	snap := s.Snapshot()
	if snap.Totals.Handoffs != waiters {
		t.Fatalf("handoffs = %d, want %d", snap.Totals.Handoffs, waiters)
	}
	if snap.Totals.BroadcastWakeups != 0 {
		t.Fatalf("broadcast wakeups = %d under handoff policy", snap.Totals.BroadcastWakeups)
	}
}

// waitQueued spins until the resource has n queued waiters.
func waitQueued(t *testing.T, s *Service, res string, n int) {
	t.Helper()
	sh := s.shardFor(res)
	deadline := time.Now().Add(5 * time.Second)
	for {
		sh.mu.Lock()
		q := 0
		if r := sh.core.res[res]; r != nil {
			q = len(r.q)
		}
		sh.mu.Unlock()
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiter %d never queued", n)
		}
		runtime.Gosched()
	}
}

// TestBroadcastGrants exercises the baseline policy end to end: all
// waiters eventually granted, wasted wake-ups counted.
func TestBroadcastGrants(t *testing.T) {
	s, _ := newTestService(t, func(c *Config) {
		c.Policy = PolicyBroadcast
		c.QueueDepth = 16
	})
	l, err := s.Acquire("r", "holder", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	var wg sync.WaitGroup
	granted := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wl, err := s.Acquire("r", fmt.Sprintf("w%d", i), AcquireOptions{Wait: true})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			granted <- struct{}{}
			if err := s.Release("r", wl.Token); err != nil {
				t.Errorf("waiter %d release: %v", i, err)
			}
		}(i)
	}
	waitQueued(t, s, "r", waiters)
	if err := s.Release("r", l.Token); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(granted) != waiters {
		t.Fatalf("granted %d of %d waiters", len(granted), waiters)
	}
	snap := s.Snapshot()
	if snap.Totals.BroadcastWakeups == 0 {
		t.Fatal("no broadcast wakeups recorded under broadcast policy")
	}
	if snap.Totals.Handoffs != 0 {
		t.Fatalf("handoffs = %d under broadcast policy", snap.Totals.Handoffs)
	}
}

// TestQueueFullShed pins the bounded admission queue: waiters beyond
// QueueDepth are shed with the typed backpressure error.
func TestQueueFullShed(t *testing.T) {
	s, _ := newTestService(t, func(c *Config) { c.Shards = 1; c.QueueDepth = 2 })
	l, err := s.Acquire("r", "holder", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wl, err := s.Acquire("r", "w", AcquireOptions{Wait: true})
			if err != nil {
				t.Errorf("queued waiter: %v", err)
				return
			}
			s.Release("r", wl.Token)
		}()
	}
	waitQueued(t, s, "r", 2)
	if _, err := s.Acquire("r", "late", AcquireOptions{Wait: true}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow acquire: %v, want ErrQueueFull", err)
	}
	if err := s.Release("r", l.Token); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got := s.Snapshot().Totals.QueueFullSheds; got != 1 {
		t.Fatalf("queue-full sheds = %d, want 1", got)
	}
}

// TestWaitTimeout pins MaxWait: the waiter dequeues itself and reports
// the typed timeout.
func TestWaitTimeout(t *testing.T) {
	s, clk := newTestService(t, nil)
	l, err := s.Acquire("r", "holder", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Acquire("r", "w", AcquireOptions{Wait: true, MaxWait: 100 * time.Millisecond})
		done <- err
	}()
	waitQueued(t, s, "r", 1)
	clk.Advance(200 * time.Millisecond)
	select {
	case err := <-done:
		if !errors.Is(err, ErrWaitTimeout) {
			t.Fatalf("timed-out acquire: %v, want ErrWaitTimeout", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never timed out")
	}
	if got := s.Snapshot().Totals.Timeouts; got != 1 {
		t.Fatalf("timeouts = %d, want 1", got)
	}
	// The holder still holds; release cleanly.
	if err := s.Release("r", l.Token); err != nil {
		t.Fatal(err)
	}
}

// TestExpiryGrantsNextWaiter pins the expiry path: a crashed holder's
// lease expires exactly once, is typed on late release, and the queued
// waiter is granted directly.
func TestExpiryGrantsNextWaiter(t *testing.T) {
	var expiries []Lease
	var mu sync.Mutex
	s, clk := newTestService(t, func(c *Config) {
		c.OnExpire = func(l Lease) { mu.Lock(); expiries = append(expiries, l); mu.Unlock() }
	})
	l, err := s.Acquire("r", "crasher", AcquireOptions{TTL: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan Lease, 1)
	go func() {
		wl, err := s.Acquire("r", "patient", AcquireOptions{Wait: true})
		if err != nil {
			t.Errorf("waiter: %v", err)
			return
		}
		got <- wl
	}()
	waitQueued(t, s, "r", 1)
	clk.Advance(1100 * time.Millisecond)
	if n := s.SweepExpired(); n != 1 {
		t.Fatalf("sweep expired %d leases, want 1", n)
	}
	var wl Lease
	select {
	case wl = <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not granted after expiry")
	}
	if wl.Owner != "patient" {
		t.Fatalf("granted to %q", wl.Owner)
	}
	// The crasher's late release is typed.
	if err := s.Release("r", l.Token); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("late release: %v, want ErrLeaseExpired", err)
	}
	// Exactly once: further sweeps expire nothing more of this lease.
	if n := s.SweepExpired(); n != 0 {
		t.Fatalf("second sweep expired %d", n)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(expiries) != 1 || expiries[0].Token != l.Token {
		t.Fatalf("expiry callbacks = %+v, want exactly one for token %d", expiries, l.Token)
	}
	if err := s.Release("r", wl.Token); err != nil {
		t.Fatal(err)
	}
}

// TestRevoke pins administrative revocation: the holder's late release
// is typed ErrRevoked and the next waiter is granted.
func TestRevoke(t *testing.T) {
	s, _ := newTestService(t, nil)
	l, err := s.Acquire("r", "victim", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	revoked, ok, err := s.Revoke("r")
	if err != nil || !ok || revoked.Token != l.Token {
		t.Fatalf("revoke = %+v %v %v", revoked, ok, err)
	}
	if err := s.Release("r", l.Token); !errors.Is(err, ErrRevoked) {
		t.Fatalf("release after revoke: %v, want ErrRevoked", err)
	}
	if _, ok, _ := s.Revoke("r"); ok {
		t.Fatal("revoke of free resource reported a lease")
	}
}

// TestStarvationDegrade pins the watchdog → degrade path: an over-aged
// waiter degrades the shard, queued waiters are flushed typed, new
// requests are shed, and the shard keeps serving immediate grants in
// shed-load mode.
func TestStarvationDegrade(t *testing.T) {
	var degraded []string
	var mu sync.Mutex
	s, clk := newTestService(t, func(c *Config) {
		c.Shards = 1
		c.StarvationBound = time.Second
		c.OnDegrade = func(sh int, reason string) {
			mu.Lock()
			degraded = append(degraded, fmt.Sprintf("shard%d:%s", sh, reason))
			mu.Unlock()
		}
	})
	l, err := s.Acquire("r", "hog", AcquireOptions{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() {
		_, err := s.Acquire("r", "starved", AcquireOptions{Wait: true})
		flushed <- err
	}()
	waitQueued(t, s, "r", 1)
	clk.Advance(2 * time.Second)
	s.SweepExpired() // runs the watchdog
	select {
	case err := <-flushed:
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("flushed waiter: %v, want ErrDegraded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("starved waiter never flushed")
	}
	// Degraded shard sheds instead of queueing.
	if _, err := s.Acquire("r", "late", AcquireOptions{Wait: true}); !errors.Is(err, ErrShed) {
		t.Fatalf("degraded acquire of held resource: %v, want ErrShed", err)
	}
	// But still serves free resources.
	l2, err := s.Acquire("other", "ok", AcquireOptions{})
	if err != nil {
		t.Fatalf("degraded immediate grant: %v", err)
	}
	if err := s.Release("other", l2.Token); err != nil {
		t.Fatal(err)
	}
	if err := s.Release("r", l.Token); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Degraded != 1 || snap.Totals.Degrades != 1 || snap.Totals.Flushed != 1 {
		t.Fatalf("degrade accounting: %+v", snap.Totals)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(degraded) != 1 {
		t.Fatalf("degrade callbacks = %v", degraded)
	}
}

// TestDegradedExclusion hammers one shard through both mode flips —
// the watchdog degrades it mid-traffic, RestoreShard brings it back, and
// a second starved waiter degrades it again — for every lock kind. Every
// granted lease brackets an unsynchronized per-resource counter, so the
// race detector and the counts are the oracle that the shard's one guard
// and its leases keep mutual exclusion across the flips.
func TestDegradedExclusion(t *testing.T) {
	for _, kind := range locks.Kinds() {
		t.Run(string(kind), func(t *testing.T) {
			var degrades atomic.Int64
			s, clk := newTestService(t, func(c *Config) {
				c.Shards = 1
				c.Lock = kind
				c.StarvationBound = time.Second
				c.QueueDepth = 64
				c.OnDegrade = func(int, string) { degrades.Add(1) }
			})
			hog, err := s.Acquire("hog", "hog", AcquireOptions{TTL: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			// The hammer: every granted lease brackets a plain increment.
			var plain [2]uint64 // one per resource, written only under its lease
			var grants atomic.Uint64
			stop := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					res := fmt.Sprintf("res%d", g%2)
					for {
						select {
						case <-stop:
							return
						default:
						}
						l, err := s.Acquire(res, "w", AcquireOptions{TTL: time.Minute})
						if err != nil {
							continue // busy or shed: fine, we only count held work
						}
						plain[g%2]++
						grants.Add(1)
						if err := s.Release(res, l.Token); err != nil {
							t.Errorf("release: %v", err)
							return
						}
					}
				}(g)
			}
			// hammered lets the traffic run on in the current mode.
			hammered := func() {
				t.Helper()
				deadline := time.Now().Add(10 * time.Second)
				for target := grants.Load() + 300; grants.Load() < target; runtime.Gosched() {
					if time.Now().After(deadline) {
						t.Fatal("hammer stalled")
					}
				}
			}
			// starve queues a waiter behind the hog and trips the watchdog
			// on it: the shard degrades mid-hammer.
			starve := func() {
				t.Helper()
				flushed := make(chan error, 1)
				go func() {
					_, err := s.Acquire("hog", "starved", AcquireOptions{Wait: true})
					flushed <- err
				}()
				waitQueued(t, s, "hog", 1)
				clk.Advance(2 * time.Second)
				s.SweepExpired()
				if err := <-flushed; !errors.Is(err, ErrDegraded) {
					t.Fatalf("starved waiter: %v, want ErrDegraded", err)
				}
			}
			hammered()
			starve()
			hammered()
			if err := s.RestoreShard(0); err != nil {
				t.Fatal(err)
			}
			hammered()
			starve()
			hammered()
			close(stop)
			wg.Wait()
			snap := s.Snapshot()
			if snap.Totals.Degrades != 2 || snap.Totals.Restores != 1 || snap.Degraded != 1 || degrades.Load() != 2 {
				t.Fatalf("degrades=%d restores=%d degraded shards=%d OnDegrade calls=%d, want 2/1/1/2",
					snap.Totals.Degrades, snap.Totals.Restores, snap.Degraded, degrades.Load())
			}
			if sum := plain[0] + plain[1]; sum != grants.Load() {
				t.Fatalf("counted %d grants under lease, recorded %d", sum, grants.Load())
			}
			if err := s.Release("hog", hog.Token); err != nil {
				t.Fatal(err)
			}
			checkConservation(t, s, "after the flips")
		})
	}
}

// TestCallbacksRunUnguarded pins leave's contract: OnExpire and
// OnDegrade run with no shard guard held — each re-enters the shard it
// was raised on, which would self-deadlock under the guard — and exactly
// once per event.
func TestCallbacksRunUnguarded(t *testing.T) {
	var s *Service
	var expired, degraded []string
	reenter := func() {
		// Snapshot takes every shard's guard; Acquire runs a full
		// enter/leave on the (only) shard the event came from.
		s.Snapshot()
		l, err := s.Acquire("callback", "cb", AcquireOptions{})
		if err != nil {
			t.Errorf("acquire from callback: %v", err)
			return
		}
		if err := s.Release("callback", l.Token); err != nil {
			t.Errorf("release from callback: %v", err)
		}
	}
	s, clk := newTestService(t, func(c *Config) {
		c.Shards = 1
		c.StarvationBound = 3 * time.Second
		c.OnExpire = func(l Lease) { expired = append(expired, l.Resource); reenter() }
		c.OnDegrade = func(sh int, _ string) { degraded = append(degraded, fmt.Sprint(sh)); reenter() }
	})
	for _, res := range []string{"a", "b"} {
		if _, err := s.Acquire(res, "crasher", AcquireOptions{TTL: time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	hog, err := s.Acquire("hog", "hog", AcquireOptions{TTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	flushed := make(chan error, 1)
	go func() {
		_, err := s.Acquire("hog", "starved", AcquireOptions{Wait: true})
		flushed <- err
	}()
	waitQueued(t, s, "hog", 1)

	// One operation's enter both expires a and b and trips the watchdog;
	// its leave owes three callbacks. A Release raises them as well as a
	// sweep does.
	clk.Advance(4 * time.Second)
	done := make(chan error, 1)
	go func() { done <- s.Release("hog", hog.Token) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("release: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("deadlock: a callback re-entered the shard under its guard")
	}
	if err := <-flushed; !errors.Is(err, ErrDegraded) {
		t.Fatalf("starved waiter: %v, want ErrDegraded", err)
	}
	s.SweepExpired() // nothing left to report
	sort.Strings(expired)
	if fmt.Sprint(expired) != "[a b]" || fmt.Sprint(degraded) != "[0]" {
		t.Fatalf("OnExpire for %v, OnDegrade for %v; want [a b] and [0], once each", expired, degraded)
	}
}

// TestExpiryHeapHoldsLiveLeasesOnly pins the bound on the expiry heap:
// it holds the live leases and nothing else, however many were granted
// and released before their (long) deadline — at the parent of this test
// a released lease's entry stayed until its deadline — and the survivors
// still expire in deadline order, exactly once each.
func TestExpiryHeapHoldsLiveLeasesOnly(t *testing.T) {
	var order []string
	s, clk := newTestService(t, func(c *Config) {
		c.Shards = 1
		c.MaxTTL = time.Hour
		c.OnExpire = func(l Lease) { order = append(order, l.Resource) }
	})
	sh := s.shards[0]
	heapLen := func() int {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return len(sh.core.heap)
	}
	// Survivors, granted out of deadline order.
	for _, res := range []string{"s3", "s1", "s2"} {
		ttl := time.Duration(res[1]-'0') * 10 * time.Minute
		if _, err := s.Acquire(res, "keeper", AcquireOptions{TTL: ttl}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10_000; i++ {
		res := fmt.Sprintf("churn%d", i%7)
		l, err := s.Acquire(res, "churner", AcquireOptions{TTL: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		if i%100 == 0 {
			// Revocation ends a lease early too.
			if _, ok, err := s.Revoke(res); !ok || err != nil {
				t.Fatalf("revoke %s: %v %v", res, ok, err)
			}
		} else if err := s.Release(res, l.Token); err != nil {
			t.Fatal(err)
		}
		if n := heapLen(); n != 3 {
			t.Fatalf("after %d grants the heap holds %d entries for 3 live leases", i+1, n)
		}
	}
	for i, want := range []string{"s1", "s2", "s3"} {
		clk.Advance(10 * time.Minute)
		if n := s.SweepExpired(); n != 1 {
			t.Fatalf("sweep %d expired %d leases, want 1", i, n)
		}
		if order[len(order)-1] != want || heapLen() != 2-i {
			t.Fatalf("sweep %d: expired %v (want %s last), heap %d", i, order, want, heapLen())
		}
	}
	if s.SweepExpired() != 0 || len(order) != 3 {
		t.Fatalf("expiries %v, want s1 s2 s3 once each", order)
	}
	checkConservation(t, s, "after churn")
}

// TestCloseFlushesWaiters pins shutdown: queued waiters get ErrClosed,
// later ops get ErrClosed, Close is idempotent.
func TestCloseFlushesWaiters(t *testing.T) {
	s, _ := newTestService(t, nil)
	l, err := s.Acquire("r", "holder", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.Acquire("r", "w", AcquireOptions{Wait: true})
		done <- err
	}()
	waitQueued(t, s, "r", 1)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("flushed waiter: %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter not flushed on close")
	}
	if _, err := s.Acquire("x", "y", AcquireOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close: %v", err)
	}
	if err := s.Release("r", l.Token); !errors.Is(err, ErrClosed) {
		t.Fatalf("release after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("second close not idempotent:", err)
	}
}

// TestPerShardPrimitives pins the shard guard selection and the typed
// rejection of a bad Config.
func TestPerShardPrimitives(t *testing.T) {
	s, _ := newTestService(t, func(c *Config) { c.Lock = locks.KindTicket })
	for _, sh := range s.Snapshot().Shards {
		if sh.Lock != string(locks.KindTicket) {
			t.Fatalf("shard %d lock = %q, want %q", sh.Shard, sh.Lock, locks.KindTicket)
		}
	}
	var ce *ConfigError
	_, err := New(Config{Shards: -1})
	if !errors.As(err, &ce) {
		t.Fatalf("bad config error not typed: %v", err)
	}
}

// TestSweeperBackground exercises the real-clock sweeper: a lease with a
// short TTL expires without any client action.
func TestSweeperBackground(t *testing.T) {
	expired := make(chan Lease, 1)
	s, err := New(Config{
		Shards:     1,
		DefaultTTL: 20 * time.Millisecond,
		OnExpire:   func(l Lease) { expired <- l },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	l, err := s.Acquire("r", "crash", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case e := <-expired:
		if e.Token != l.Token {
			t.Fatalf("expired %d, want %d", e.Token, l.Token)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("background sweeper never expired the lease")
	}
}

// TestSweeperExpiresAtDeadline runs the sweeper on a FakeClock. It naps
// until the earliest lease deadline with no floor under the nap, so a
// lease expires when the clock reaches its deadline, and OnExpire fires
// exactly once.
func TestSweeperExpiresAtDeadline(t *testing.T) {
	clk := NewFakeClock()
	expired := make(chan Lease, 4)
	s, err := New(Config{Shards: 2, Clock: clk, OnExpire: func(l Lease) { expired <- l }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	armed := func() {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			clk.mu.Lock()
			n := len(clk.timers)
			clk.mu.Unlock()
			if n > 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatal("the sweeper never armed its nap")
			}
		}
	}
	// The sweeper's first nap is its 50 ms cap; the second is the 20 µs
	// left of the lease, shorter than any floor would allow.
	const rest = 20 * time.Microsecond
	l, err := s.Acquire("r", "crash", AcquireOptions{TTL: 50*time.Millisecond + rest})
	if err != nil {
		t.Fatal(err)
	}
	armed()
	clk.Advance(50 * time.Millisecond)
	armed()
	clk.Advance(rest)
	select {
	case e := <-expired:
		if e.Token != l.Token {
			t.Fatalf("expired %d, want %d", e.Token, l.Token)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the lease outlived its deadline: the sweeper napped past it")
	}
	armed()
	clk.Advance(time.Second)
	if n := s.SweepExpired(); n != 0 || len(expired) != 0 {
		t.Fatalf("after the expiry: %d more swept, %d more OnExpire calls", n, len(expired))
	}
	if n := s.Snapshot().Totals.Expiries; n != 1 {
		t.Fatalf("expiries = %d, want 1", n)
	}
}
