package service

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iqolb/internal/faults"
)

// The service fault campaign mirrors experiments.RunCampaign: seeded,
// typed fault kinds injected into live traffic, every run classified
// into the campaign vocabulary, and a hard guarantee of zero bare hangs
// (every blocked operation must end in a grant, a typed error, or the
// watchdog's degradation — never silence).

// Service-level fault kinds.
const (
	// faultClockSkew jumps the lease clock forward in random increments,
	// expiring leases out from under live holders.
	faultClockSkew = "clock-skew"
	// faultDroppedRelease makes clients "crash": they forget to release
	// with some probability, leaving reclamation to the TTL backstop —
	// or, when the TTL outlives the starvation bound, to the watchdog.
	faultDroppedRelease = "dropped-release"
)

// Campaign outcome classification, following experiments/campaign.go.
const (
	outcomeAbsorbed  = "absorbed"  // faults fired, no safety net needed
	outcomeRecovered = "recovered" // TTL expiry reclaimed leaked leases
	outcomeDegraded  = "degraded"  // the starvation watchdog tripped
)

type campaignConfig struct {
	kind  string
	seed  uint64
	ttl   time.Duration
	bound time.Duration
}

type campaignOutcome struct {
	status   string
	expiries uint64
	degrades uint64
	grants   uint64
}

// runFaultCampaign executes one seeded chaos run and classifies it. All
// timing is FakeClock-driven, so the schedule is reproducible per seed
// up to goroutine interleaving — and the classification invariants hold
// on every interleaving.
func runFaultCampaign(t *testing.T, cc campaignConfig) campaignOutcome {
	t.Helper()
	clk := NewFakeClock()
	s, err := New(Config{
		Shards:          2,
		QueueDepth:      16,
		DefaultTTL:      cc.ttl,
		MaxTTL:          time.Hour,
		StarvationBound: cc.bound,
		Clock:           clk,
		NoSweeper:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const clients = 4
	const opsPerClient = 20
	resources := []string{"a", "b", "c"}
	var wg sync.WaitGroup
	var clientsDone atomic.Int64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			defer clientsDone.Add(1)
			// Per-client stream split off the campaign seed, same seedMix
			// discipline as the fault planner.
			str := faults.NewStream(cc.seed + uint64(c)*0x9e3779b97f4a7c15 + 1)
			for i := 0; i < opsPerClient; i++ {
				res := resources[str.Intn(int64(len(resources)))]
				l, err := s.Acquire(res, fmt.Sprintf("c%d", c), AcquireOptions{
					Wait:    true,
					MaxWait: 30 * time.Second, // bounded by fake time: no bare hangs
				})
				if err != nil {
					// Typed refusals are legitimate fault fallout.
					if !errors.Is(err, ErrWaitTimeout) && !errors.Is(err, ErrQueueFull) &&
						!errors.Is(err, ErrShed) && !errors.Is(err, ErrDegraded) {
						t.Errorf("client %d acquire: %v", c, err)
					}
					continue
				}
				if cc.kind == faultDroppedRelease && str.Chance(0.4) {
					continue // crash: the release never happens
				}
				if cc.kind == faultClockSkew {
					// Hold across a few controller ticks so the skewed clock
					// can kill the lease mid-hold.
					time.Sleep(time.Duration(200+str.Intn(1800)) * time.Microsecond)
				}
				if err := s.Release(res, l.Token); err != nil {
					// Clock skew may have expired the lease mid-hold; that
					// must surface as the typed expiry, nothing else.
					if !errors.Is(err, ErrLeaseExpired) && !errors.Is(err, ErrRevoked) {
						t.Errorf("client %d release: %v", c, err)
					}
				}
			}
		}(c)
	}

	// Chaos controller: advances the lease clock (the skew injection) and
	// drives expiry sweeps until the clients drain. Progress is
	// guaranteed: every advance ages MaxWait timers, TTLs, and the
	// starvation watchdog together.
	ctrl := faults.NewStream(cc.seed ^ 0xc0ffee)
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	watchdog := time.After(60 * time.Second)
	for {
		select {
		case <-done:
		case <-watchdog:
			buf := make([]byte, 256<<10)
			t.Fatalf("bare hang: %d/%d clients finished after 60s real time\n%s",
				clientsDone.Load(), clients, buf[:runtime.Stack(buf, true)])
		default:
		}
		select {
		case <-done:
		default:
			step := 20 * time.Millisecond
			if cc.kind == faultClockSkew {
				step = time.Duration(50+ctrl.Intn(450)) * time.Millisecond
			}
			clk.Advance(step)
			s.SweepExpired()
			time.Sleep(200 * time.Microsecond)
			continue
		}
		break
	}

	// Drain: expire whatever the crashed clients leaked.
	for i := 0; i < 100 && s.Snapshot().LiveLeases > 0; i++ {
		clk.Advance(cc.ttl)
		s.SweepExpired()
	}
	snap := s.Snapshot()
	if snap.LiveLeases != 0 {
		t.Fatalf("%d leases still live after drain", snap.LiveLeases)
	}
	// Conservation: every grant ends in exactly one of release, expiry,
	// or revocation — the service-level "leases die exactly once".
	if err := snap.Conserved(); err != nil {
		t.Fatalf("lease conservation violated: %v", err)
	}
	out := campaignOutcome{
		expiries: snap.Totals.Expiries,
		degrades: snap.Totals.Degrades,
		grants:   snap.Totals.Grants,
	}
	switch {
	case out.degrades > 0:
		out.status = outcomeDegraded
	case out.expiries > 0:
		out.status = outcomeRecovered
	default:
		out.status = outcomeAbsorbed
	}
	return out
}

// TestFaultCampaign sweeps both fault kinds across seeds and both
// TTL-vs-starvation-bound regimes, asserting every run classifies
// cleanly and the campaign as a whole exercises all three outcomes.
func TestFaultCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("fault campaign is seconds-long")
	}
	type key struct{ kind, status string }
	seen := map[key]int{}
	var mu sync.Mutex
	configs := []campaignConfig{
		// Skewed clocks with a roomy bound: expiry absorbs the damage.
		{kind: faultClockSkew, ttl: 500 * time.Millisecond, bound: time.Minute},
		// Dropped releases with TTL well under the bound: the TTL backstop
		// reclaims (recovered).
		{kind: faultDroppedRelease, ttl: 300 * time.Millisecond, bound: time.Minute},
		// Dropped releases with TTL far past the bound: waiters age out
		// and the watchdog degrades the shard (degraded).
		{kind: faultDroppedRelease, ttl: time.Hour, bound: 2 * time.Second},
	}
	for _, cc := range configs {
		cc := cc
		for seed := uint64(1); seed <= 4; seed++ {
			cc := cc
			cc.seed = seed
			t.Run(fmt.Sprintf("%s/ttl=%s/seed=%d", cc.kind, cc.ttl, seed), func(t *testing.T) {
				t.Parallel()
				out := runFaultCampaign(t, cc)
				if out.grants == 0 {
					t.Fatal("campaign made no progress: zero grants")
				}
				mu.Lock()
				seen[key{cc.kind, out.status}]++
				mu.Unlock()
			})
		}
	}
	t.Cleanup(func() {
		// Campaign-level coverage: the sweep must demonstrate both safety
		// nets and not only the happy path.
		if seen[key{faultDroppedRelease, outcomeRecovered}] == 0 {
			t.Errorf("no dropped-release run recovered via TTL expiry: %v", seen)
		}
		if seen[key{faultDroppedRelease, outcomeDegraded}] == 0 {
			t.Errorf("no dropped-release run degraded via the watchdog: %v", seen)
		}
		if seen[key{faultClockSkew, outcomeRecovered}] == 0 {
			t.Errorf("no clock-skew run saw a mid-hold expiry (recovered): %v", seen)
		}
	})
}

// TestFaultCampaignDeterministicSchedule pins that the injection
// schedule is seed-deterministic: the same seed draws the same fault
// decisions (the concurrent grant order may differ, but the per-client
// crash pattern may not).
func TestFaultCampaignDeterministicSchedule(t *testing.T) {
	draw := func(seed uint64) []bool {
		mix := uint64(0x9e3779b97f4a7c15) // wrap-around is intended
		str := faults.NewStream(seed + 2*mix + 1)
		var out []bool
		for i := 0; i < 20; i++ {
			str.Intn(3)
			out = append(out, str.Chance(0.4))
		}
		return out
	}
	a, b := draw(7), draw(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different crash schedules")
		}
	}
}
