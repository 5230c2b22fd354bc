package service

import (
	"time"

	"iqolb/internal/adaptive"
)

// This file is the live-migration half of the adaptive redesign: the
// verbs that change one shard's wakeup discipline while traffic is in
// flight, and the adapter that exposes shards to the contention
// controller as an adaptive.Plant.
//
// The safety argument is an epoch fence, shard-local: every grant
// decision — immediate grant, hand-off, broadcast wake, flush — is a
// core verb run under the shard guard, and so is the policy flip.
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
	if p != PolicyHandoff && p != PolicyBroadcast {
		return configErr("policy", "cannot migrate to %q (have handoff, broadcast)", p)
	}
	return s.onShard(shard, func(c *core, now time.Time) { c.migrate(now, p) })
}

// DegradeShard administratively puts one shard into shed-load mode,
// exactly as the starvation watchdog would: queued waiters are flushed
// with ErrDegraded and new waiters are shed. A degraded shard stays
// degraded until RestoreShard.
func (s *Service) DegradeShard(shard int, reason string) error {
	return s.onShard(shard, func(c *core, now time.Time) { c.degrade(now, reason) })
}

// RestoreShard returns a degraded shard to queueing service under its
// recorded policy, with the watchdog re-armed. The flip runs under the
// shard guard like every grant decision, so it has a place in the
// shard's serialization order. Restoring a healthy shard is a no-op.
func (s *Service) RestoreShard(shard int) error {
	return s.onShard(shard, func(c *core, now time.Time) { c.restore(now) })
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
	c := &sh.core
	smp := adaptive.Sample{
		Acquires:       c.counters.Acquires,
		Grants:         c.counters.Grants,
		QueueFullSheds: c.counters.QueueFullSheds,
		DegradedSheds:  c.counters.DegradedSheds,
		Queued:         c.queued,
		Policy:         adaptive.Policy(c.policy),
	}
	if c.degraded {
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
