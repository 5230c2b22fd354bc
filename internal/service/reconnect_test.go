package service

import (
	"errors"
	"sync"
	"testing"
	"time"

	"iqolb/internal/faults"
)

// The reconnect-fencing suite: 500 seeded histories of the crash →
// reconnect → resume lifecycle, driven in-process against a manual
// clock so every expiry is deterministic. Each history asserts the
// wire-v2 safety contract:
//
//   - a crashed client's lease expires exactly once (never zero, never
//     twice), observed through the OnExpire callback;
//   - a stale token can never double-release: after expiry or a
//     successor grant, release and resume with the old credentials fail
//     typed and leave the successor untouched;
//   - a reconnect before expiry resumes the same lease, same fence;
//   - lease conservation holds at the end of every history.
func TestReconnectFencingHistories(t *testing.T) {
	const (
		histories = 500
		ttl       = 100 * time.Millisecond
	)
	for seed := uint64(0); seed < histories; seed++ {
		str := faults.NewStream(seed*0x9e3779b9 + 1)

		var mu sync.Mutex
		expiries := make(map[uint64]int)
		clk := NewFakeClock()
		svc, err := New(Config{
			Shards:     1,
			QueueDepth: 8,
			DefaultTTL: ttl,
			Clock:      clk,
			NoSweeper:  true,
			OnExpire: func(l Lease) {
				mu.Lock()
				expiries[l.Token]++
				mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}

		grants := 0
		for step := 0; step < 10; step++ {
			l, err := svc.Acquire("r", "c1", AcquireOptions{})
			if err != nil {
				t.Fatalf("seed %d step %d: acquire: %v", seed, step, err)
			}
			grants++
			if l.Fence == 0 {
				t.Fatalf("seed %d step %d: grant without fence", seed, step)
			}

			if !str.Chance(0.5) {
				// Well-behaved client: release, then prove the release is
				// not repeatable.
				if err := svc.ReleaseFenced("r", l.Token, l.Fence); err != nil {
					t.Fatalf("seed %d step %d: release: %v", seed, step, err)
				}
				if err := svc.ReleaseFenced("r", l.Token, l.Fence); err == nil {
					t.Fatalf("seed %d step %d: double release accepted", seed, step)
				}
				continue
			}

			// Crash mid-hold: the client vanishes without releasing.
			if str.Chance(0.5) {
				// Reconnect before the TTL: resume revalidates the same
				// lease with the same fence...
				got, err := svc.Resume("r", l.Token, l.Fence)
				if err != nil || got.Token != l.Token || got.Fence != l.Fence {
					t.Fatalf("seed %d step %d: resume: %+v, %v", seed, step, got, err)
				}
				// ...while a stale fence claim for the same token is
				// rejected without touching the lease.
				if _, err := svc.Resume("r", l.Token, l.Fence+1); !errors.Is(err, ErrFenced) {
					t.Fatalf("seed %d step %d: stale-fence resume: %v, want ErrFenced", seed, step, err)
				}
				if err := svc.ReleaseFenced("r", l.Token, l.Fence); err != nil {
					t.Fatalf("seed %d step %d: release after resume: %v", seed, step, err)
				}
				continue
			}

			// No reconnect in time: the lease must expire, exactly once.
			clk.Advance(ttl + time.Millisecond)
			svc.SweepExpired()
			mu.Lock()
			n := expiries[l.Token]
			mu.Unlock()
			if n != 1 {
				t.Fatalf("seed %d step %d: token %d expired %d times, want 1", seed, step, l.Token, n)
			}

			// A successor takes the resource with a strictly newer fence.
			l2, err := svc.Acquire("r", "c2", AcquireOptions{})
			if err != nil {
				t.Fatalf("seed %d step %d: successor acquire: %v", seed, step, err)
			}
			grants++
			if l2.Fence <= l.Fence {
				t.Fatalf("seed %d step %d: successor fence %d not past %d", seed, step, l2.Fence, l.Fence)
			}

			// The crashed client reconnects with stale credentials: every
			// path fails typed and the successor is untouched.
			if _, err := svc.Resume("r", l.Token, l.Fence); !errors.Is(err, ErrLeaseExpired) {
				t.Fatalf("seed %d step %d: stale resume: %v, want ErrLeaseExpired", seed, step, err)
			}
			if err := svc.ReleaseFenced("r", l.Token, l.Fence); !errors.Is(err, ErrLeaseExpired) {
				t.Fatalf("seed %d step %d: stale release: %v, want ErrLeaseExpired", seed, step, err)
			}
			if got, err := svc.Resume("r", l2.Token, l2.Fence); err != nil || got.Token != l2.Token {
				t.Fatalf("seed %d step %d: successor displaced: %+v, %v", seed, step, got, err)
			}
			if err := svc.ReleaseFenced("r", l2.Token, l2.Fence); err != nil {
				t.Fatalf("seed %d step %d: successor release: %v", seed, step, err)
			}
			// Exactly once, still: the stale churn above must not have
			// re-expired the old token.
			mu.Lock()
			n = expiries[l.Token]
			mu.Unlock()
			if n != 1 {
				t.Fatalf("seed %d step %d: token %d expiries drifted to %d", seed, step, l.Token, n)
			}
		}

		snap := svc.Snapshot()
		tt := snap.Totals
		if uint64(grants) != tt.Grants {
			t.Fatalf("seed %d: grants counted %d, service saw %d", seed, grants, tt.Grants)
		}
		if err := snap.Conserved(); err != nil {
			t.Fatalf("seed %d: conservation: %v", seed, err)
		}
		svc.Close()
	}
}
