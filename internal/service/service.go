// Package service is the serving layer over the native lock library: a
// lock/lease service in which named resources are sharded across
// locks.Lock instances and every grant decision is a software rendering
// of the paper's delay-insertion argument.
//
// The analogy, precisely:
//
//   - The paper inserts delays at the requester (delayed requests) or the
//     holder (delayed responses) so a contended line is transferred once
//     per hand-off instead of once per poll. The service's bounded
//     admission queue is the same idea at the serving boundary: excess
//     requesters are deflected (shed) at admission instead of being
//     allowed to hammer the resource, and queued waiters are parked on a
//     private channel instead of polling.
//   - PolicyHandoff is the software form of QOLB/IQOLB's releaser→waiter
//     grant: a release (or expiry) builds the next lease while still
//     holding the shard and delivers it to exactly one queued waiter in
//     one transfer. Nobody re-contends.
//   - PolicyBroadcast is the plain-RFO baseline: a release marks the
//     resource free and wakes every waiter, who all race to re-acquire;
//     all but one wake-up is wasted (counted as WastedWakeups, the
//     service's analogue of redundant bus transactions).
//
// Leases carry deadlines. Expiry is typed and exactly-once: a crashed
// client's lease is reclaimed by the sweeper, the next waiter is granted
// directly, and a late Release of the dead token reports ErrLeaseExpired.
//
// Each shard's internal state is guarded by a selectable locks.Lock
// primitive (tts/ticket/mcs/clh/adaptive), so the serving layer's own
// hot path rides the PR-5 primitives. A starvation watchdog — the same
// role the check monitor's watchdog plays for the simulator — degrades a
// pathological shard to a plain sync.Mutex plus shed-load mode: queued
// waiters are flushed with a typed error and no new waiters are admitted,
// mirroring the simulator's graceful degradation to plain RFO.
package service

import (
	"container/heap"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"iqolb/internal/adaptive"
	"iqolb/internal/stats"
	"iqolb/locks"
)

// Policy selects how a release passes the resource to waiters.
type Policy string

const (
	// PolicyHandoff grants the resource directly to the queued next
	// waiter in one transfer (the IQOLB analogue).
	PolicyHandoff Policy = "handoff"
	// PolicyBroadcast wakes every waiter and lets them re-contend (the
	// plain test&set analogue).
	PolicyBroadcast Policy = "broadcast"
)

// ParsePolicy resolves a policy name.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case PolicyHandoff, PolicyBroadcast:
		return Policy(s), nil
	}
	return "", configErr("policy", "unknown policy %q (have handoff, broadcast)", s)
}

// Lease is one granted exclusive claim on a named resource.
type Lease struct {
	Resource string
	Owner    string
	// Token uniquely identifies this grant; release and revocation
	// address the lease by token, so a stale holder can never release a
	// successor's lease.
	Token uint64
	// Fence is the resource's monotonic grant counter at this grant: the
	// fencing token of the classic fencing argument. It survives the
	// resource's table entry (the per-resource counter is never reset),
	// so even after the bounded gone-ring forgets a dead token, a zombie
	// client presenting a stale fence is rejected typed (ErrFenced)
	// rather than mistaken for a never-granted claim.
	Fence uint64
	// Deadline is when the lease expires if not released.
	Deadline time.Time
}

// AcquireOptions tunes one acquire.
type AcquireOptions struct {
	// TTL is the lease lifetime (0 = Config.DefaultTTL; clamped to
	// Config.MaxTTL).
	TTL time.Duration
	// Wait queues the request when the resource is held; otherwise a
	// held resource reports ErrNoWait immediately.
	Wait bool
	// MaxWait bounds the queued wait (0 = wait until granted or
	// flushed).
	MaxWait time.Duration
}

// Config describes a Service.
type Config struct {
	// Shards is the number of lease-table shards (default 8). Resources
	// hash to shards; each shard is one lock domain.
	Shards int
	// Lock is the primitive guarding every shard (default mcs). Locks,
	// when non-empty, overrides it per shard (len must equal Shards) —
	// "primitive selectable per shard".
	Lock  locks.Kind
	Locks []locks.Kind
	// Policy is the grant policy (default PolicyHandoff).
	Policy Policy
	// QueueDepth bounds each shard's admission queue (default 64).
	// Requests beyond it are shed with ErrQueueFull — backpressure as
	// delay insertion.
	QueueDepth int
	// DefaultTTL and MaxTTL bound lease lifetimes (defaults 5s, 60s).
	DefaultTTL time.Duration
	MaxTTL     time.Duration
	// StarvationBound is the oldest tolerated queued wait before the
	// watchdog degrades the shard (default 10s; <0 disables).
	StarvationBound time.Duration
	// Clock substitutes a manual clock (nil = wall clock).
	Clock Clock
	// OnExpire, when non-nil, is called exactly once per expired lease,
	// outside all shard locks.
	OnExpire func(Lease)
	// OnDegrade, when non-nil, is called once per shard degradation,
	// outside all shard locks.
	OnDegrade func(shard int, reason string)
	// NoSweeper disables the background expiry sweeper; tests drive
	// SweepExpired manually against a FakeClock.
	NoSweeper bool
	// Adaptive enables the contention controller: every shard's
	// telemetry feeds an adaptive.Controller that live-migrates shards
	// between policies and retunes the shard locks' inserted-delay
	// parameters online. Policy then only sets each shard's starting
	// discipline.
	Adaptive bool
	// AdaptiveInterval overrides the controller's sampling period
	// (0 = the controller default, 25ms).
	AdaptiveInterval time.Duration

	// brokenHandoff is the linearizability harness's seeded bug: the
	// direct hand-off grants the waiter but "forgets" to record the
	// transfer, so a racing acquire is granted a second live lease. Only
	// in-package tests can set it; it exists to prove the harness
	// catches real hand-off bugs.
	brokenHandoff bool
}

func (c *Config) withDefaults() (Config, error) {
	cfg := *c
	if cfg.Shards == 0 {
		cfg.Shards = 8
	}
	if cfg.Shards < 1 {
		return cfg, configErr("shards", "must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Lock == "" {
		cfg.Lock = locks.KindMCS
	}
	if len(cfg.Locks) != 0 && len(cfg.Locks) != cfg.Shards {
		return cfg, configErr("locks", "%d per-shard locks for %d shards", len(cfg.Locks), cfg.Shards)
	}
	if cfg.Policy == "" {
		cfg.Policy = PolicyHandoff
	}
	if cfg.Policy != PolicyHandoff && cfg.Policy != PolicyBroadcast {
		return cfg, configErr("policy", "unknown policy %q", cfg.Policy)
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.QueueDepth < 1 {
		return cfg, configErr("queue_depth", "must be >= 1, got %d", cfg.QueueDepth)
	}
	if cfg.DefaultTTL == 0 {
		cfg.DefaultTTL = 5 * time.Second
	}
	if cfg.MaxTTL == 0 {
		cfg.MaxTTL = 60 * time.Second
	}
	if cfg.DefaultTTL < 0 || cfg.MaxTTL < cfg.DefaultTTL {
		return cfg, configErr("ttl", "bounds default=%v max=%v", cfg.DefaultTTL, cfg.MaxTTL)
	}
	if cfg.StarvationBound == 0 {
		cfg.StarvationBound = 10 * time.Second
	}
	if cfg.AdaptiveInterval < 0 {
		return cfg, configErr("adaptive_interval", "must be >= 0, got %v", cfg.AdaptiveInterval)
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	return cfg, nil
}

// Validate reports whether the Config would construct, without
// constructing. Every failure is a *ConfigError naming the offending
// field, so CLIs can report exactly which knob was wrong before
// starting anything.
func (c Config) Validate() error {
	_, err := (&c).withDefaults()
	return err
}

// grantResult is what a parked waiter receives: a lease (handoff), or a
// broadcast wake-up telling it to re-contend.
type grantResult struct {
	lease Lease
	retry bool
}

// waiter is one queued acquire. grant is buffered so the releaser's
// hand-off never blocks; flushed/flushErr are guarded by the shard lock
// and published by closing grant.
type waiter struct {
	owner    string
	ttl      time.Duration
	enq      time.Time
	grant    chan grantResult
	flushed  bool
	flushErr error
}

// leaseState is the shard's record of a live lease.
type leaseState struct {
	lease     Lease
	grantedAt time.Time
}

// resource is one named resource's state within a shard.
type resource struct {
	name   string
	holder *leaseState
	q      []*waiter // FIFO admission order
}

// heapEntry schedules one lease's expiry; entries are lazily invalidated
// by token comparison, so releases never search the heap.
type heapEntry struct {
	deadline int64 // UnixNano
	token    uint64
	res      string
}

type leaseHeap []heapEntry

func (h leaseHeap) Len() int           { return len(h) }
func (h leaseHeap) Less(i, j int) bool { return h[i].deadline < h[j].deadline }
func (h leaseHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *leaseHeap) Push(x any)        { *h = append(*h, x.(heapEntry)) }
func (h *leaseHeap) Pop() any          { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// goneRingSize bounds each shard's memory of ended tokens (expired or
// revoked), which types late releases.
const goneRingSize = 1024

// lockToken records which guard a shard operation holds; see
// shard.lockShard.
type lockToken struct {
	fb     bool // entered via the degraded fallback mutex
	alsoFB bool // degraded mid-operation: holding both guards
}

// shard is one lock domain: a lease table plus its admission queue,
// guarded by a selectable primitive with a plain-mutex degradation path.
type shard struct {
	svc *Service
	id  int

	mu       locks.Lock // primitive guard (normal mode)
	fb       sync.Mutex // fallback guard (degraded mode)
	degraded atomic.Bool

	// Everything below is guarded by mu (normal) or fb (degraded); the
	// degradation protocol in degradeLocked / restore makes the switch
	// safe.
	degradeReason string
	// policy is this shard's live wakeup discipline. It starts at
	// Config.Policy and moves under MigrateShard; every grant decision
	// reads it under the shard guard, so a flip is atomic with respect
	// to grants — the epoch fence.
	policy Policy
	// epoch counts discipline changes (migrations, degrades, restores).
	epoch uint64
	// armedAt re-arms the starvation watchdog: waits are measured from
	// max(enqueue, armedAt), so a discipline change gives the new
	// policy a full StarvationBound to prove itself before the
	// watchdog may degrade the shard.
	armedAt time.Time
	res     map[string]*resource
	queued  int
	heap    leaseHeap
	gone    map[uint64]error // token → ErrLeaseExpired / ErrRevoked
	// fences holds each resource's monotonic grant counter. Entries
	// deliberately outlive the resource's res entry (never deleted), so
	// fencing verdicts survive resource GC.
	fences    map[string]uint64
	goneRing  [goneRingSize]uint64
	goneNext  int
	live      int
	counters  Counters
	grantWait stats.Histogram // enqueue → grant, ns
	hold      stats.Histogram // grant → release, ns
}

// lockShard acquires the shard guard. Before degradation that is the
// configured primitive; after, the plain fallback mutex. The flag is
// re-checked after acquiring either guard so a goroutine that raced a
// degradation — or, since RestoreShard, a restoration — never mutates
// state under the abandoned guard.
func (sh *shard) lockShard() lockToken {
	for {
		if sh.degraded.Load() {
			sh.fb.Lock()
			if sh.degraded.Load() {
				return lockToken{fb: true}
			}
			sh.fb.Unlock()
			continue
		}
		sh.mu.Lock()
		if !sh.degraded.Load() {
			return lockToken{}
		}
		sh.mu.Unlock()
	}
}

func (sh *shard) unlockShard(t lockToken) {
	if t.fb {
		sh.fb.Unlock()
		return
	}
	if t.alsoFB {
		sh.fb.Unlock()
	}
	sh.mu.Unlock()
}

// degradeLocked switches the shard to plain-mutex + shed-load mode. The
// caller holds the primitive guard; the fallback mutex is acquired
// BEFORE the flag flips and stays held until the caller's unlockShard,
// so at no instant can a fallback-path goroutine overlap the degrading
// critical section. Queued waiters are flushed with ErrDegraded — the
// serving-layer analogue of the simulator flushing held delays when it
// degrades to plain RFO.
func (sh *shard) degradeLocked(t lockToken, reason string) lockToken {
	if t.fb || sh.degraded.Load() {
		return t
	}
	sh.fb.Lock()
	t.alsoFB = true
	sh.degraded.Store(true)
	sh.degradeReason = reason
	sh.epoch++
	sh.counters.Degrades++
	sh.flushWaitersLocked(ErrDegraded)
	if cb := sh.svc.cfg.OnDegrade; cb != nil {
		id := sh.id
		sh.svc.pendingCallbacks(func() { cb(id, reason) })
	}
	return t
}

// flushWaitersLocked fails every queued waiter with err and empties the
// admission queue.
func (sh *shard) flushWaitersLocked(err error) {
	for _, r := range sh.res {
		for _, w := range r.q {
			w.flushed = true
			w.flushErr = err
			sh.counters.Flushed++
			close(w.grant)
		}
		r.q = nil
	}
	sh.queued = 0
}

// rememberGone records why a token's lease ended so a late Release is
// typed; the ring bounds memory.
func (sh *shard) rememberGone(token uint64, cause error) {
	if old := sh.goneRing[sh.goneNext]; old != 0 {
		delete(sh.gone, old)
	}
	sh.goneRing[sh.goneNext] = token
	sh.goneNext = (sh.goneNext + 1) % goneRingSize
	sh.gone[token] = cause
}

// resourceLocked returns (creating if needed) the named resource.
func (sh *shard) resourceLocked(name string) *resource {
	r := sh.res[name]
	if r == nil {
		r = &resource{name: name}
		sh.res[name] = r
	}
	return r
}

// gcLocked drops an idle resource entry.
func (sh *shard) gcLocked(r *resource) {
	if r.holder == nil && len(r.q) == 0 {
		delete(sh.res, r.name)
	}
}

// oldestWaitLocked returns the enqueue time of the oldest queued waiter
// and whether one exists.
func (sh *shard) oldestWaitLocked() (time.Time, bool) {
	if sh.queued == 0 {
		// Nobody waits: skip the scan. The watchdog runs on every
		// dispatch, so with private (uncontended) resources this guard
		// is the difference between O(1) and O(resources) per op.
		return time.Time{}, false
	}
	var oldest time.Time
	found := false
	for _, r := range sh.res {
		for _, w := range r.q {
			if !found || w.enq.Before(oldest) {
				oldest = w.enq
				found = true
			}
		}
	}
	return oldest, found
}

// watchdogLocked is the starvation watchdog: a queued wait older than
// StarvationBound degrades the shard.
func (sh *shard) watchdogLocked(t lockToken, now time.Time) lockToken {
	if t.fb || sh.svc.cfg.StarvationBound <= 0 {
		return t
	}
	if oldest, ok := sh.oldestWaitLocked(); ok {
		if sh.armedAt.After(oldest) {
			oldest = sh.armedAt // re-armed since the oldest enqueue
		}
		if age := now.Sub(oldest); age > sh.svc.cfg.StarvationBound {
			return sh.degradeLocked(t, fmt.Sprintf("starvation: waiter queued %v > bound %v", age, sh.svc.cfg.StarvationBound))
		}
	}
	return t
}

// Service is a sharded lock-lease service.
type Service struct {
	cfg    Config
	clock  Clock
	shards []*shard
	tokens atomic.Uint64
	closed atomic.Bool
	// draining refuses new acquires (typed ErrDraining) while existing
	// leases run out their grace; see Drain.
	draining atomic.Bool

	// tun and ctrl exist only in adaptive mode: tun is the shared
	// inserted-delay parameter cell every shard lock reads, ctrl the
	// controller retuning it and migrating shard policies.
	tun      *locks.Tuning
	ctrl     *adaptive.Controller
	ctrlDone chan struct{}

	stop        chan struct{}
	sweeperDone chan struct{}

	// cbMu serializes deferred callbacks (expiry, degrade) so observers
	// see them in a consistent order without any shard lock held.
	cbMu    sync.Mutex
	cbQueue []func()
}

// New builds a service and, unless NoSweeper, starts its expiry sweeper.
func New(cfg Config) (*Service, error) {
	full, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:   full,
		clock: full.Clock,
		stop:  make(chan struct{}),
	}
	var lockOpts []locks.Option
	if full.Adaptive {
		s.tun = locks.NewTuning()
		lockOpts = append(lockOpts, locks.WithTuning(s.tun))
	}
	s.shards = make([]*shard, full.Shards)
	for i := range s.shards {
		kind := full.Lock
		if len(full.Locks) != 0 {
			kind = full.Locks[i]
		}
		mu, err := locks.New(kind, lockOpts...)
		if err != nil {
			return nil, configErr("lock", "shard %d: %v", i, err)
		}
		s.shards[i] = &shard{
			svc:    s,
			id:     i,
			mu:     mu,
			policy: full.Policy,
			res:    make(map[string]*resource),
			gone:   make(map[uint64]error),
			fences: make(map[string]uint64),
		}
	}
	if !full.NoSweeper {
		s.sweeperDone = make(chan struct{})
		go s.sweeper()
	}
	if full.Adaptive {
		s.ctrl = adaptive.New(plantAdapter{s}, adaptive.Config{
			Interval: full.AdaptiveInterval,
			Tuning:   s.tun,
		})
		s.ctrlDone = make(chan struct{})
		go func() { defer close(s.ctrlDone); s.ctrl.Run() }()
	}
	return s, nil
}

// Policy returns the service's configured (starting) grant policy.
// Individual shards may have migrated since; see ShardPolicy.
func (s *Service) Policy() Policy { return s.cfg.Policy }

// ShardPolicy reports the live discipline of one shard: its current
// policy, or degraded state if the shard has been degraded.
func (s *Service) ShardPolicy(shard int) (p Policy, degraded bool, err error) {
	if shard < 0 || shard >= len(s.shards) {
		return "", false, configErr("shard", "index %d out of range [0,%d)", shard, len(s.shards))
	}
	sh := s.shards[shard]
	t := sh.lockShard()
	p, degraded = sh.policy, t.fb
	sh.unlockShard(t)
	return p, degraded, nil
}

// shardFor hashes a resource name to its shard.
func (s *Service) shardFor(resource string) *shard {
	h := fnv.New32a()
	h.Write([]byte(resource))
	// The modulo is taken unsigned: on a 32-bit int, a hash ≥ 2³¹ would
	// convert negative and index out of range.
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// pendingCallbacks enqueues a deferred callback; runCallbacks drains the
// queue outside all shard locks.
func (s *Service) pendingCallbacks(f func()) {
	s.cbMu.Lock()
	s.cbQueue = append(s.cbQueue, f)
	s.cbMu.Unlock()
}

func (s *Service) runCallbacks() {
	for {
		s.cbMu.Lock()
		if len(s.cbQueue) == 0 {
			s.cbMu.Unlock()
			return
		}
		f := s.cbQueue[0]
		s.cbQueue = s.cbQueue[1:]
		s.cbMu.Unlock()
		f()
	}
}

// newLeaseLocked creates a live lease for r and schedules its expiry.
func (s *Service) newLeaseLocked(sh *shard, r *resource, owner string, now time.Time, ttl time.Duration) Lease {
	sh.fences[r.name]++
	lease := Lease{
		Resource: r.name,
		Owner:    owner,
		Token:    s.tokens.Add(1),
		Fence:    sh.fences[r.name],
		Deadline: now.Add(ttl),
	}
	r.holder = &leaseState{lease: lease, grantedAt: now}
	heap.Push(&sh.heap, heapEntry{deadline: lease.Deadline.UnixNano(), token: lease.Token, res: r.name})
	sh.live++
	sh.counters.Grants++
	return lease
}

// clampTTL resolves an acquire's TTL against the config bounds.
func (s *Service) clampTTL(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		ttl = s.cfg.DefaultTTL
	}
	if ttl > s.cfg.MaxTTL {
		ttl = s.cfg.MaxTTL
	}
	return ttl
}

// grantNextLocked passes a freed resource onward per the shard's live
// grant policy.
func (s *Service) grantNextLocked(sh *shard, r *resource, now time.Time) {
	if sh.policy == PolicyBroadcast {
		// Broadcast: wake the whole pack; they re-contend under the
		// shard guard and all but one wake-up is wasted.
		if n := len(r.q); n > 0 {
			sh.counters.BroadcastWakeups += uint64(n)
			for _, w := range r.q {
				select {
				case w.grant <- grantResult{retry: true}:
				default: // a wake-up is already pending
				}
			}
		}
		sh.gcLocked(r)
		return
	}
	// Direct hand-off: build the successor's lease while still holding
	// the shard and deliver it in one transfer.
	if len(r.q) > 0 {
		w := r.q[0]
		r.q = r.q[1:]
		sh.queued--
		lease := s.newLeaseLocked(sh, r, w.owner, now, w.ttl)
		sh.counters.Handoffs++
		sh.grantWait.Add(uint64(now.Sub(w.enq)))
		if s.cfg.brokenHandoff {
			r.holder = nil // seeded bug: the transfer is "forgotten"
		}
		w.grant <- grantResult{lease: lease}
		return
	}
	sh.gcLocked(r)
}

// expireDueLocked reclaims every lease past its deadline in this shard
// and grants successors; it returns the expired leases for the
// exactly-once OnExpire callbacks (run by the caller outside the lock).
func (s *Service) expireDueLocked(sh *shard, now time.Time) []Lease {
	var out []Lease
	nowNS := now.UnixNano()
	for len(sh.heap) > 0 && sh.heap[0].deadline <= nowNS {
		e := heap.Pop(&sh.heap).(heapEntry)
		r := sh.res[e.res]
		if r == nil || r.holder == nil || r.holder.lease.Token != e.token {
			continue // stale entry: the lease was released or revoked
		}
		lease := r.holder.lease
		r.holder = nil
		sh.live--
		sh.rememberGone(e.token, ErrLeaseExpired)
		sh.counters.Expiries++
		out = append(out, lease)
		s.grantNextLocked(sh, r, now)
	}
	return out
}

// queueExpiryCallbacks defers OnExpire for each expired lease.
func (s *Service) queueExpiryCallbacks(expired []Lease) {
	if cb := s.cfg.OnExpire; cb != nil {
		for _, l := range expired {
			lease := l
			s.pendingCallbacks(func() { cb(lease) })
		}
	}
}

// Acquire requests an exclusive lease on a named resource. A free
// resource is granted immediately. A held one is queued (opt.Wait)
// subject to the shard's bounded admission queue, shed when the queue is
// full or the shard is degraded, or refused with ErrNoWait. All errors
// are typed; see errors.go.
func (s *Service) Acquire(resourceName, owner string, opt AcquireOptions) (Lease, error) {
	if resourceName == "" {
		return Lease{}, configErrf("empty resource name")
	}
	if s.closed.Load() {
		return Lease{}, ErrClosed
	}
	if s.draining.Load() {
		return Lease{}, ErrDraining
	}
	ttl := s.clampTTL(opt.TTL)
	sh := s.shardFor(resourceName)
	now := s.clock.Now()

	t := sh.lockShard()
	if s.closed.Load() {
		sh.unlockShard(t)
		return Lease{}, ErrClosed
	}
	if s.draining.Load() {
		// Re-checked under the shard guard so no waiter can slip into the
		// queue after Drain's flush pass.
		sh.unlockShard(t)
		return Lease{}, ErrDraining
	}
	sh.counters.Acquires++
	expired := s.expireDueLocked(sh, now)
	t = sh.watchdogLocked(t, now)
	r := sh.resourceLocked(resourceName)

	if r.holder == nil && (t.fb || sh.policy == PolicyBroadcast || len(r.q) == 0) {
		lease := s.newLeaseLocked(sh, r, owner, now, ttl)
		sh.counters.ImmediateGrants++
		sh.grantWait.Add(0)
		sh.unlockShard(t)
		s.queueExpiryCallbacks(expired)
		s.runCallbacks()
		return lease, nil
	}
	// Held (or hand-off pending). Decide admission.
	var refusal error
	switch {
	case t.fb:
		// Degraded: shed-load mode, no queueing at all.
		sh.counters.DegradedSheds++
		refusal = ErrShed
	case !opt.Wait:
		sh.counters.NoWaitBusy++
		refusal = ErrNoWait
	case sh.queued >= s.cfg.QueueDepth:
		// Backpressure: the bounded admission queue deflects the
		// request instead of letting it pile on the resource.
		sh.counters.QueueFullSheds++
		refusal = ErrQueueFull
	}
	if refusal != nil {
		sh.gcLocked(r)
		sh.unlockShard(t)
		s.queueExpiryCallbacks(expired)
		s.runCallbacks()
		return Lease{}, refusal
	}

	w := &waiter{owner: owner, ttl: ttl, enq: now, grant: make(chan grantResult, 1)}
	r.q = append(r.q, w)
	sh.queued++
	sh.unlockShard(t)
	s.queueExpiryCallbacks(expired)
	s.runCallbacks()
	return s.await(sh, resourceName, w, opt)
}

// await parks a queued waiter until grant, flush, or timeout.
func (s *Service) await(sh *shard, resourceName string, w *waiter, opt AcquireOptions) (Lease, error) {
	var timeout <-chan time.Time
	var timer Timer
	if opt.MaxWait > 0 {
		timer = s.clock.NewTimer(opt.MaxWait)
		timeout = timer.C()
		defer timer.Stop()
	}
	for {
		select {
		case g, ok := <-w.grant:
			if !ok {
				// Flushed: degraded shard or service shutdown; the
				// cause was published before the close.
				return Lease{}, w.flushErr
			}
			if !g.retry {
				return g.lease, nil
			}
			// Broadcast wake-up: re-contend.
			if lease, done, err := s.tryClaim(sh, resourceName, w); done {
				return lease, err
			}
		case <-timeout:
			if lease, granted, err := s.abandonWait(sh, resourceName, w); granted {
				return lease, err
			}
			return Lease{}, ErrWaitTimeout
		}
	}
}

// tryClaim is the broadcast waiter's re-contention step: claim the
// resource if it is free, otherwise record a wasted wake-up and keep
// waiting.
func (s *Service) tryClaim(sh *shard, resourceName string, w *waiter) (Lease, bool, error) {
	now := s.clock.Now()
	t := sh.lockShard()
	if w.flushed {
		err := w.flushErr
		sh.unlockShard(t)
		return Lease{}, true, err
	}
	r := sh.res[resourceName]
	if r == nil {
		// The resource entry was collected, so it is free; recreate.
		r = sh.resourceLocked(resourceName)
	}
	if r.holder == nil {
		removeWaiter(sh, r, w)
		lease := s.newLeaseLocked(sh, r, w.owner, now, w.ttl)
		sh.counters.BroadcastClaims++
		sh.grantWait.Add(uint64(now.Sub(w.enq)))
		sh.unlockShard(t)
		return lease, true, nil
	}
	sh.counters.WastedWakeups++
	sh.unlockShard(t)
	return Lease{}, false, nil
}

// abandonWait removes a timed-out waiter. If the waiter was already
// granted or flushed (the message raced the timeout), the pending
// outcome is consumed and returned instead.
func (s *Service) abandonWait(sh *shard, resourceName string, w *waiter) (Lease, bool, error) {
	t := sh.lockShard()
	removed := false
	if !w.flushed {
		if r := sh.res[resourceName]; r != nil {
			removed = removeWaiter(sh, r, w)
			sh.gcLocked(r)
		}
	}
	if removed {
		sh.counters.Timeouts++
	}
	sh.unlockShard(t)
	if removed {
		return Lease{}, false, nil
	}
	// Not queued anymore: a grant or flush is pending (the sender
	// completed while holding the shard guard).
	g, ok := <-w.grant
	if !ok {
		return Lease{}, true, w.flushErr
	}
	if g.retry {
		// Broadcast retry raced the timeout while a flush cleared the
		// queue — the close follows; wait for the definitive outcome.
		if g2, ok2 := <-w.grant; ok2 && !g2.retry {
			return g2.lease, true, nil
		}
		return Lease{}, true, w.flushErr
	}
	return g.lease, true, nil
}

// removeWaiter unlinks w from r's queue; reports whether it was queued.
func removeWaiter(sh *shard, r *resource, w *waiter) bool {
	for i, o := range r.q {
		if o == w {
			r.q = append(r.q[:i], r.q[i+1:]...)
			sh.queued--
			return true
		}
	}
	return false
}

// Release ends a lease by token. Late releases are typed: an expired
// lease reports ErrLeaseExpired, a revoked one ErrRevoked, anything else
// ErrNotHeld.
func (s *Service) Release(resourceName string, token uint64) error {
	return s.release(resourceName, token, 0)
}

// ReleaseFenced ends a lease by token, additionally validated against
// the lease's fencing token. Fence 0 makes no fence claim (identical to
// Release). A non-zero stale fence is rejected ErrFenced — the typed
// verdict a zombie client gets even after the gone-ring has forgotten
// its token, because the per-resource fence counter is never reset.
func (s *Service) ReleaseFenced(resourceName string, token, fence uint64) error {
	return s.release(resourceName, token, fence)
}

func (s *Service) release(resourceName string, token, fence uint64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	sh := s.shardFor(resourceName)
	now := s.clock.Now()

	t := sh.lockShard()
	// Expire first: a release racing its own deadline resolves to the
	// typed expiry, never to a silent double-release.
	expired := s.expireDueLocked(sh, now)
	t = sh.watchdogLocked(t, now)
	var err error
	r := sh.res[resourceName]
	switch {
	case r == nil || r.holder == nil || r.holder.lease.Token != token:
		if cause, ok := sh.gone[token]; ok {
			err = cause
		} else if fence != 0 && fence < sh.fences[resourceName] {
			err = ErrFenced
			sh.counters.FencedRejects++
		} else {
			err = ErrNotHeld
		}
		sh.counters.BadReleases++
	case fence != 0 && r.holder.lease.Fence != fence:
		// The token matches but the fence claim does not: a confused
		// client must not release a lease it cannot prove is its own.
		err = ErrFenced
		sh.counters.FencedRejects++
		sh.counters.BadReleases++
	default:
		sh.counters.Releases++
		sh.hold.Add(uint64(now.Sub(r.holder.grantedAt)))
		r.holder = nil
		sh.live--
		s.grantNextLocked(sh, r, now)
	}
	sh.unlockShard(t)
	s.queueExpiryCallbacks(expired)
	s.runCallbacks()
	return err
}

// Resume re-validates a lease after a reconnect: if token still holds
// the resource the live lease is returned and the client may carry on;
// otherwise the typed reason it cannot — ErrLeaseExpired / ErrRevoked
// while the gone-ring remembers the token, ErrFenced when the fence
// claim is provably stale, ErrNotHeld otherwise. Resume never mutates
// lease state: it is safe to call any number of times.
func (s *Service) Resume(resourceName string, token, fence uint64) (Lease, error) {
	if resourceName == "" {
		return Lease{}, configErrf("empty resource name")
	}
	if s.closed.Load() {
		return Lease{}, ErrClosed
	}
	sh := s.shardFor(resourceName)
	now := s.clock.Now()

	t := sh.lockShard()
	// Expire first so a resume racing its own deadline sees the typed
	// expiry, never a lease that is about to vanish.
	expired := s.expireDueLocked(sh, now)
	var lease Lease
	var err error
	r := sh.res[resourceName]
	switch {
	case r != nil && r.holder != nil && r.holder.lease.Token == token:
		if fence != 0 && r.holder.lease.Fence != fence {
			err = ErrFenced
			sh.counters.FencedRejects++
		} else {
			lease = r.holder.lease
			sh.counters.Resumes++
		}
	default:
		if cause, ok := sh.gone[token]; ok {
			err = cause
		} else if fence != 0 && fence < sh.fences[resourceName] {
			err = ErrFenced
			sh.counters.FencedRejects++
		} else {
			err = ErrNotHeld
		}
	}
	sh.unlockShard(t)
	s.queueExpiryCallbacks(expired)
	s.runCallbacks()
	return lease, err
}

// Revoke force-releases a resource's current lease (administrative
// preemption); the revoked lease (if any) is returned and the resource
// is granted onward. A late Release of the revoked token reports
// ErrRevoked.
func (s *Service) Revoke(resourceName string) (Lease, bool, error) {
	if s.closed.Load() {
		return Lease{}, false, ErrClosed
	}
	sh := s.shardFor(resourceName)
	now := s.clock.Now()

	t := sh.lockShard()
	expired := s.expireDueLocked(sh, now)
	r := sh.res[resourceName]
	if r == nil || r.holder == nil {
		sh.unlockShard(t)
		s.queueExpiryCallbacks(expired)
		s.runCallbacks()
		return Lease{}, false, nil
	}
	lease := r.holder.lease
	r.holder = nil
	sh.live--
	sh.rememberGone(lease.Token, ErrRevoked)
	sh.counters.Revocations++
	s.grantNextLocked(sh, r, now)
	sh.unlockShard(t)
	s.queueExpiryCallbacks(expired)
	s.runCallbacks()
	return lease, true, nil
}

// SweepExpired reclaims every due lease across all shards and runs the
// starvation watchdog; it returns how many leases expired. The
// background sweeper calls it; tests with NoSweeper call it manually.
func (s *Service) SweepExpired() int {
	now := s.clock.Now()
	total := 0
	for _, sh := range s.shards {
		t := sh.lockShard()
		expired := s.expireDueLocked(sh, now)
		t = sh.watchdogLocked(t, now)
		sh.unlockShard(t)
		total += len(expired)
		s.queueExpiryCallbacks(expired)
	}
	s.runCallbacks()
	return total
}

// sweeper is the background expiry loop: it wakes at the earliest lease
// deadline (bounded so the starvation watchdog runs regularly) and
// sweeps.
func (s *Service) sweeper() {
	defer close(s.sweeperDone)
	const maxNap = 50 * time.Millisecond
	const minNap = 100 * time.Microsecond
	for {
		nap := maxNap
		now := s.clock.Now()
		for _, sh := range s.shards {
			t := sh.lockShard()
			if len(sh.heap) > 0 {
				if d := time.Duration(sh.heap[0].deadline - now.UnixNano()); d < nap {
					nap = d
				}
			}
			sh.unlockShard(t)
		}
		if nap < minNap {
			nap = minNap
		}
		timer := s.clock.NewTimer(nap)
		select {
		case <-timer.C():
			s.SweepExpired()
		case <-s.stop:
			timer.Stop()
			return
		}
	}
}

// Draining reports whether the service is refusing new acquires for
// shutdown.
func (s *Service) Draining() bool { return s.draining.Load() }

// liveLeaseCount sums live leases across shards.
func (s *Service) liveLeaseCount() int {
	total := 0
	for _, sh := range s.shards {
		t := sh.lockShard()
		total += sh.live
		sh.unlockShard(t)
	}
	return total
}

// Drain winds the service down gracefully: new acquires are refused
// with ErrDraining, every queued waiter is flushed with ErrDraining
// under the shard epoch fence (epoch++ so in-flight grant decisions
// from before the drain cannot land after it), live leases get up to
// grace to be released or to expire, and any straggler is then revoked
// (a late Release of a revoked token reports ErrRevoked). Drain is
// idempotent and leaves the service alive for Release/Resume traffic —
// callers typically follow with Close.
func (s *Service) Drain(grace time.Duration) error {
	if s.closed.Load() {
		return ErrClosed
	}
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	for _, sh := range s.shards {
		t := sh.lockShard()
		sh.epoch++
		sh.flushWaitersLocked(ErrDraining)
		sh.unlockShard(t)
	}
	s.runCallbacks()

	// Grace: let holders release (or their leases expire) before the
	// revoke pass. The deadline timer rides the service clock so
	// FakeClock tests drive it with Advance; the poll nap is a real
	// sleep, which is only pacing, not semantics.
	if grace > 0 {
		deadline := s.clock.NewTimer(grace)
		for s.liveLeaseCount() > 0 {
			s.SweepExpired()
			if s.liveLeaseCount() == 0 {
				break
			}
			fired := false
			select {
			case <-deadline.C():
				fired = true
			default:
			}
			if fired || s.closed.Load() {
				break
			}
			time.Sleep(500 * time.Microsecond)
		}
		deadline.Stop()
	}

	// Revoke stragglers so the drained service ends with zero live
	// leases; conservation stays intact (each straggler moves from Live
	// to Revocations).
	for _, sh := range s.shards {
		t := sh.lockShard()
		now := s.clock.Now()
		expired := s.expireDueLocked(sh, now)
		for _, r := range sh.res {
			if r.holder == nil {
				continue
			}
			lease := r.holder.lease
			r.holder = nil
			sh.live--
			sh.rememberGone(lease.Token, ErrRevoked)
			sh.counters.Revocations++
			sh.gcLocked(r)
		}
		sh.unlockShard(t)
		s.queueExpiryCallbacks(expired)
	}
	s.runCallbacks()
	return nil
}

// Close shuts the service down: the sweeper stops and every queued
// waiter is flushed with ErrClosed. Close is idempotent.
func (s *Service) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stop)
	if s.ctrl != nil {
		s.ctrl.Close()
		<-s.ctrlDone
	}
	if s.sweeperDone != nil {
		<-s.sweeperDone
	}
	for _, sh := range s.shards {
		t := sh.lockShard()
		sh.flushWaitersLocked(ErrClosed)
		sh.unlockShard(t)
	}
	s.runCallbacks()
	return nil
}
