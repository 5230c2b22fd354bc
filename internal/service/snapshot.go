package service

import (
	"fmt"
	"reflect"

	"iqolb/internal/adaptive"
	"iqolb/internal/stats"
)

// SnapshotSchemaVersion identifies the Snapshot layout, following the
// repo's artifact conventions (internal/obs, internal/experiments): bump on
// any field addition, removal, or change of meaning.
//
// v2: per-shard live policy and epoch, migration/restore counters, and
// the optional adaptive-controller state block.
//
// v3: resume and fenced-reject counters (wire-v2 reconnect fencing).
const SnapshotSchemaVersion = 3

// Counters are one shard's monotonic event counts. The broadcast-policy
// fields quantify the thundering herd the hand-off policy avoids:
// WastedWakeups is the service's analogue of the redundant bus
// transactions the paper's delays eliminate.
type Counters struct {
	Acquires        uint64 `json:"acquires"`
	Grants          uint64 `json:"grants"`
	ImmediateGrants uint64 `json:"immediate_grants"`
	// Handoffs: grants delivered releaser→waiter in one transfer
	// (PolicyHandoff).
	Handoffs uint64 `json:"handoffs"`
	// BroadcastWakeups / BroadcastClaims / WastedWakeups: wake-ups sent,
	// wake-ups that claimed the resource, and wake-ups that found it
	// already taken (PolicyBroadcast).
	BroadcastWakeups uint64 `json:"broadcast_wakeups"`
	BroadcastClaims  uint64 `json:"broadcast_claims"`
	WastedWakeups    uint64 `json:"wasted_wakeups"`
	// QueueFullSheds: requests shed by the bounded admission queue.
	// DegradedSheds: requests shed by a degraded shard's shed-load mode.
	QueueFullSheds uint64 `json:"queue_full_sheds"`
	DegradedSheds  uint64 `json:"degraded_sheds"`
	NoWaitBusy     uint64 `json:"no_wait_busy"`
	Timeouts       uint64 `json:"timeouts"`
	Releases       uint64 `json:"releases"`
	BadReleases    uint64 `json:"bad_releases"`
	Expiries       uint64 `json:"expiries"`
	Revocations    uint64 `json:"revocations"`
	// Resumes: leases successfully re-validated after a reconnect.
	// FencedRejects: stale-fence releases/resumes rejected typed — each
	// one is a double-release the fencing tokens prevented.
	Resumes       uint64 `json:"resumes"`
	FencedRejects uint64 `json:"fenced_rejects"`
	// Flushed: waiters failed with a typed error on degrade or close.
	Flushed  uint64 `json:"flushed"`
	Degrades uint64 `json:"degrades"`
	// Migrations: live policy flips (MigrateShard). Restores: degraded
	// shards returned to primitive-guarded service (RestoreShard).
	Migrations uint64 `json:"migrations"`
	Restores   uint64 `json:"restores"`
}

// add accumulates o into c (for the snapshot totals row).
func (c *Counters) add(o Counters) {
	sum, more := reflect.ValueOf(c).Elem(), reflect.ValueOf(o)
	for i := 0; i < sum.NumField(); i++ {
		sum.Field(i).SetUint(sum.Field(i).Uint() + more.Field(i).Uint())
	}
}

// Sheds is the total of both shed classes.
func (c Counters) Sheds() uint64 { return c.QueueFullSheds + c.DegradedSheds }

// ShardSnapshot is one shard's state at capture time.
type ShardSnapshot struct {
	Shard int    `json:"shard"`
	Lock  string `json:"lock"`
	// Policy is the shard's live wakeup discipline; Epoch counts the
	// discipline changes (migrations, degrades, restores) it has seen.
	Policy        string   `json:"policy"`
	Epoch         uint64   `json:"epoch"`
	Degraded      bool     `json:"degraded,omitempty"`
	DegradeReason string   `json:"degrade_reason,omitempty"`
	Queued        int      `json:"queued"`
	LiveLeases    int      `json:"live_leases"`
	Counters      Counters `json:"counters"`
	// GrantWaitNS: enqueue → grant (zero samples for immediate grants).
	// HoldNS: grant → release.
	GrantWaitNS stats.Histogram `json:"grant_wait_ns"`
	HoldNS      stats.Histogram `json:"hold_ns"`
}

// Snapshot is a consistent-per-shard capture of the whole service
// (shards are captured one at a time, so cross-shard totals are
// approximate under load — same contract as obs.Snapshot's counters).
type Snapshot struct {
	SchemaVersion int             `json:"schema_version"`
	Policy        string          `json:"policy"`
	QueueDepth    int             `json:"queue_depth"`
	Shards        []ShardSnapshot `json:"shards"`
	// Controller is the adaptive controller's state; nil for static
	// (non-adaptive) services.
	Controller  *adaptive.State `json:"controller,omitempty"`
	Totals      Counters        `json:"totals"`
	GrantWaitNS stats.Histogram `json:"grant_wait_ns"`
	HoldNS      stats.Histogram `json:"hold_ns"`
	LiveLeases  int             `json:"live_leases"`
	Degraded    int             `json:"degraded_shards"`
}

// Conserved checks lease conservation: every lease ever granted is
// exactly one of released, expired, revoked or live. A shard's counters
// move in the critical section that grants or ends the lease and are
// captured in one, so the identity holds exactly, under traffic too.
func (s *Snapshot) Conserved() error {
	t := s.Totals
	if t.Grants != t.Releases+t.Expiries+t.Revocations+uint64(s.LiveLeases) {
		return fmt.Errorf("grants=%d != releases=%d + expiries=%d + revocations=%d + live=%d",
			t.Grants, t.Releases, t.Expiries, t.Revocations, s.LiveLeases)
	}
	return nil
}

// Snapshot captures the current service state.
func (s *Service) Snapshot() *Snapshot {
	snap := &Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Policy:        string(s.cfg.Policy),
		QueueDepth:    s.cfg.QueueDepth,
		Shards:        make([]ShardSnapshot, len(s.shards)),
	}
	for i, sh := range s.shards {
		sh.mu.Lock()
		c := &sh.core
		ss := ShardSnapshot{
			Shard:         i,
			Lock:          sh.mu.Name(),
			Policy:        string(c.policy),
			Epoch:         c.epoch,
			Degraded:      c.degraded,
			DegradeReason: c.degradeReason,
			Queued:        c.queued,
			LiveLeases:    c.live,
			Counters:      c.counters,
		}
		ss.GrantWaitNS.Merge(&c.grantWait)
		ss.HoldNS.Merge(&c.hold)
		sh.mu.Unlock()
		snap.Shards[i] = ss
		snap.Totals.add(ss.Counters)
		snap.GrantWaitNS.Merge(&ss.GrantWaitNS)
		snap.HoldNS.Merge(&ss.HoldNS)
		snap.LiveLeases += ss.LiveLeases
		if ss.Degraded {
			snap.Degraded++
		}
	}
	snap.Controller = s.ControllerState()
	return snap
}
