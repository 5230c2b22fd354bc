package service

import (
	"iqolb/internal/adaptive"
)

// This file is the live-migration half of the adaptive redesign: the
// verbs that change one shard's wakeup discipline while traffic is in
// flight, and the adapter that exposes shards to the contention
// controller as an adaptive.Plant.
//
// The safety argument is an epoch fence, shard-local: every grant
// decision — immediate grant, hand-off, broadcast wake, flush — runs
// under the shard guard, and the policy flip runs under the same guard.
// So the flip has a precise place in the shard's serialization order:
// every grant before it fully completed under the old discipline, every
// grant after it runs under the new one, and no lease can be dropped or
// double-granted by the transition itself. The migration suite proves
// this with randomized flips under the linearizability checker.

// MigrateShard live-migrates one shard between PolicyHandoff and
// PolicyBroadcast without disturbing live leases or parked waiters.
// Under the shard guard it drains due expiries under the old policy,
// flips, re-arms the starvation watchdog, and re-dispatches any
// free-but-queued resource under the new discipline (a head waiter is
// granted directly on →handoff; the pack is woken on →broadcast).
// Migrating a degraded shard only records the policy it will resume
// with on restore. Migrating to the current policy is a no-op.
func (s *Service) MigrateShard(shard int, p Policy) error {
	sh, err := s.shardAt(shard)
	if err != nil {
		return err
	}
	if p != PolicyHandoff && p != PolicyBroadcast {
		return configErr("policy", "cannot migrate to %q (have handoff, broadcast)", p)
	}
	now := sh.enter() // drains due work under the old policy
	defer sh.leave()
	if sh.policy == p {
		return nil
	}
	sh.policy = p
	sh.epoch++
	sh.armedAt = now
	sh.counters.Migrations++
	if sh.degraded {
		return nil // nobody is queued, and nobody will be until restore
	}
	if p == PolicyHandoff {
		// Waiters queued under broadcast may hold an unconsumed retry
		// wake-up in their grant buffer. Hand-off delivery assumes that
		// buffer slot is free — drain it now, under the guard, so no
		// future grant can block behind a stale retry.
		for _, r := range sh.res {
			for _, w := range r.q {
				select {
				case <-w.grant:
				default:
				}
			}
		}
	}
	// Re-dispatch: a free resource with a queue must not stay idle
	// across the flip (its wake-ups may have been consumed under the
	// old discipline and lost their race).
	for _, r := range sh.res {
		if r.holder == nil && len(r.q) > 0 {
			sh.grantNextLocked(r, now)
		}
	}
	return nil
}

// DegradeShard administratively puts one shard into shed-load mode,
// exactly as the starvation watchdog would: queued waiters are flushed
// with ErrDegraded and new waiters are shed. A degraded shard stays
// degraded until RestoreShard.
func (s *Service) DegradeShard(shard int, reason string) error {
	sh, err := s.shardAt(shard)
	if err != nil {
		return err
	}
	sh.enter()
	sh.degradeLocked(reason)
	sh.leave()
	return nil
}

// RestoreShard returns a degraded shard to queueing service under its
// recorded policy, with the watchdog re-armed. The flip runs under the
// shard guard like every grant decision, so it has a place in the
// shard's serialization order. Restoring a healthy shard is a no-op.
func (s *Service) RestoreShard(shard int) error {
	sh, err := s.shardAt(shard)
	if err != nil {
		return err
	}
	now := sh.enter()
	if sh.degraded {
		sh.degraded, sh.degradeReason = false, ""
		sh.epoch++
		sh.armedAt = now
		sh.counters.Restores++
	}
	sh.leave()
	return nil
}

// plantAdapter exposes the service's shards as an adaptive.Plant. It
// lives on the service side of the service → adaptive import edge; the
// controller never learns anything about leases.
type plantAdapter struct{ s *Service }

// NumShards implements adaptive.Plant.
func (p plantAdapter) NumShards() int { return len(p.s.shards) }

// SampleShard implements adaptive.Plant: a consistent read of one
// shard's telemetry under its guard.
func (p plantAdapter) SampleShard(i int) adaptive.Sample {
	sh := p.s.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	smp := adaptive.Sample{
		Acquires:       sh.counters.Acquires,
		Grants:         sh.counters.Grants,
		QueueFullSheds: sh.counters.QueueFullSheds,
		DegradedSheds:  sh.counters.DegradedSheds,
		Queued:         sh.queued,
		Policy:         adaptive.Policy(sh.policy),
	}
	if sh.degraded {
		smp.Policy = adaptive.PolicyDegraded
	}
	return smp
}

// SetPolicy implements adaptive.Plant, mapping the controller's three
// targets onto the service's migration verbs.
func (p plantAdapter) SetPolicy(i int, pol adaptive.Policy) error {
	switch pol {
	case adaptive.PolicyDegraded:
		return p.s.DegradeShard(i, "controller: shed fraction above degrade watermark")
	case adaptive.PolicyHandoff, adaptive.PolicyBroadcast:
		if err := p.s.RestoreShard(i); err != nil {
			return err
		}
		return p.s.MigrateShard(i, Policy(pol))
	}
	return configErr("policy", "unknown controller policy %q", pol)
}

// ControllerState reports the adaptive controller's live state, or nil
// when the service runs without one (Config.Adaptive false).
func (s *Service) ControllerState() *adaptive.State {
	if s.ctrl == nil {
		return nil
	}
	st := s.ctrl.State()
	return &st
}
