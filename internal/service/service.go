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
// role the check monitor's watchdog plays for the simulator — puts a
// pathological shard into shed-load mode: queued waiters are flushed
// with a typed error and no new waiters are admitted, mirroring the
// simulator's graceful degradation to plain RFO. Like the paper's
// time-out it changes what the shard does, not who guards it: the mode
// is a flag under the shard's one guard.
package service

import (
	"container/heap"
	"fmt"
	"hash/fnv"
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
	// Lock is the primitive guarding every shard (default mcs).
	Lock locks.Kind
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
	// with no shard guard held, by the operation that reclaimed it.
	OnExpire func(Lease)
	// OnDegrade, when non-nil, is called once per shard degradation,
	// with no shard guard held, by the operation that degraded it.
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

// leaseState is the shard's record of a live lease. heapIdx is its slot
// in the shard's expiry heap, kept current by the heap's Swap, so the
// lease's end removes its entry and the heap holds live leases only.
type leaseState struct {
	lease     Lease
	grantedAt time.Time
	heapIdx   int
}

// resource is one named resource's state within a shard.
type resource struct {
	name   string
	holder *leaseState
	q      []*waiter // FIFO admission order
}

// leaseHeap orders a shard's live leases by deadline.
type leaseHeap []*leaseState

func (h leaseHeap) Len() int           { return len(h) }
func (h leaseHeap) Less(i, j int) bool { return h[i].lease.Deadline.Before(h[j].lease.Deadline) }
func (h leaseHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}
func (h *leaseHeap) Push(x any) {
	ls := x.(*leaseState)
	ls.heapIdx = len(*h)
	*h = append(*h, ls)
}
func (h *leaseHeap) Pop() any {
	old := *h
	n := len(old) - 1
	ls := old[n]
	old[n] = nil
	*h = old[:n]
	return ls
}

// goneRingSize bounds each shard's memory of ended tokens (expired or
// revoked), which types late releases.
const goneRingSize = 1024

// shard is one lock domain: a lease table plus its admission queue, under
// one guard.
type shard struct {
	svc *Service
	id  int

	// mu guards everything below. An operation takes it with enter and
	// gives it up with leave; a section that only reads, or that can
	// neither expire a lease nor degrade the shard, locks it directly.
	mu locks.Lock

	// degraded is shed-load mode: the queued waiters were flushed with
	// ErrDegraded, no new one is admitted (ErrShed), and a free resource
	// is still granted. The watchdog or DegradeShard sets it,
	// RestoreShard clears it.
	degraded      bool
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
	heap    leaseHeap        // the live leases, earliest deadline first
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

	// expired and degradedNow are what the current critical section did
	// that an observer is told of; leave takes them and calls OnExpire
	// and OnDegrade once the guard is released.
	expired     []Lease
	degradedNow bool
}

// enter opens an operation's critical section: it reads the clock, takes
// the guard, and does what every operation owes the shard first —
// reclaim the leases that are due, so an operation racing a deadline
// sees the typed expiry and never a lease about to vanish, and run the
// starvation watchdog.
func (sh *shard) enter() time.Time {
	now := sh.svc.clock.Now()
	sh.mu.Lock()
	sh.expireDueLocked(now)
	sh.watchdogLocked(now)
	return now
}

// leave closes the critical section and then, with no guard held, tells
// the observers what it did. The callbacks run on the operation's own
// goroutine, so they may call back into the service, this shard
// included.
func (sh *shard) leave() {
	expired, degraded, reason := sh.expired, sh.degradedNow, sh.degradeReason
	sh.expired, sh.degradedNow = nil, false
	sh.mu.Unlock()
	cfg := &sh.svc.cfg
	if cfg.OnExpire != nil {
		for _, l := range expired {
			cfg.OnExpire(l)
		}
	}
	if degraded && cfg.OnDegrade != nil {
		cfg.OnDegrade(sh.id, reason)
	}
}

// degradeLocked puts the shard into shed-load mode (see shard.degraded).
// Flushing the queue is the serving-layer analogue of the simulator
// flushing held delays when it degrades to plain RFO.
func (sh *shard) degradeLocked(reason string) {
	if sh.degraded {
		return
	}
	sh.degraded, sh.degradedNow, sh.degradeReason = true, true, reason
	sh.epoch++
	sh.counters.Degrades++
	sh.flushWaitersLocked(ErrDegraded)
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
func (sh *shard) watchdogLocked(now time.Time) {
	bound := sh.svc.cfg.StarvationBound
	if sh.degraded || bound <= 0 {
		return
	}
	if oldest, ok := sh.oldestWaitLocked(); ok {
		if sh.armedAt.After(oldest) {
			oldest = sh.armedAt // re-armed since the oldest enqueue
		}
		if age := now.Sub(oldest); age > bound {
			sh.degradeLocked(fmt.Sprintf("starvation: waiter queued %v > bound %v", age, bound))
		}
	}
}

// newLeaseLocked creates a live lease for r and schedules its expiry.
func (sh *shard) newLeaseLocked(r *resource, owner string, now time.Time, ttl time.Duration) Lease {
	sh.fences[r.name]++
	lease := Lease{
		Resource: r.name,
		Owner:    owner,
		Token:    sh.svc.tokens.Add(1),
		Fence:    sh.fences[r.name],
		Deadline: now.Add(ttl),
	}
	r.holder = &leaseState{lease: lease, grantedAt: now}
	heap.Push(&sh.heap, r.holder)
	sh.live++
	sh.counters.Grants++
	return lease
}

// endLeaseLocked ends r's live lease and passes the resource on. cause is
// nil for a release; otherwise it is the typed verdict (ErrLeaseExpired,
// ErrRevoked) a late release of the dead token gets.
func (sh *shard) endLeaseLocked(r *resource, cause error, now time.Time) Lease {
	ls := r.holder
	switch cause {
	case nil:
		sh.counters.Releases++
		sh.hold.Add(uint64(now.Sub(ls.grantedAt)))
	case ErrLeaseExpired:
		sh.counters.Expiries++
		sh.expired = append(sh.expired, ls.lease)
	case ErrRevoked:
		sh.counters.Revocations++
	}
	if cause != nil {
		sh.rememberGone(ls.lease.Token, cause)
	}
	r.holder = nil
	sh.live--
	heap.Remove(&sh.heap, ls.heapIdx)
	sh.grantNextLocked(r, now)
	return ls.lease
}

// expireDueLocked reclaims every lease past its deadline and grants
// successors.
func (sh *shard) expireDueLocked(now time.Time) {
	for len(sh.heap) > 0 && !sh.heap[0].lease.Deadline.After(now) {
		// A heap entry is its resource's holder: newLeaseLocked makes it
		// both, endLeaseLocked unmakes both, and a held resource's entry
		// in res is never collected.
		sh.endLeaseLocked(sh.res[sh.heap[0].lease.Resource], ErrLeaseExpired, now)
	}
}

// grantNextLocked passes a freed resource onward per the shard's live
// grant policy.
func (sh *shard) grantNextLocked(r *resource, now time.Time) {
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
		lease := sh.newLeaseLocked(r, w.owner, now, w.ttl)
		sh.counters.Handoffs++
		sh.grantWait.Add(uint64(now.Sub(w.enq)))
		if sh.svc.cfg.brokenHandoff {
			// Seeded bug: the transfer is "forgotten".
			heap.Remove(&sh.heap, r.holder.heapIdx)
			r.holder = nil
		}
		w.grant <- grantResult{lease: lease}
		return
	}
	sh.gcLocked(r)
}

// verdictLocked types the claim (token, fence) on the named resource,
// whose entry is r (nil if it has none): nil when token holds it and the
// fence claim, if any, matches; otherwise why not — ErrLeaseExpired or
// ErrRevoked while the gone-ring remembers the token, ErrFenced when the
// fence claim is provably stale, ErrNotHeld for the rest.
func (sh *shard) verdictLocked(r *resource, name string, token, fence uint64) error {
	if r != nil && r.holder != nil && r.holder.lease.Token == token {
		if fence == 0 || fence == r.holder.lease.Fence {
			return nil
		}
		// The token matches but the fence claim does not: a confused
		// client must not act on a lease it cannot prove is its own.
		// ErrFenced, below.
	} else if cause, ok := sh.gone[token]; ok {
		return cause
	} else if fence == 0 || fence >= sh.fences[name] {
		return ErrNotHeld
	}
	sh.counters.FencedRejects++
	return ErrFenced
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
		mu, err := locks.New(full.Lock, lockOpts...)
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

// shardAt resolves a shard index for the per-shard verbs.
func (s *Service) shardAt(i int) (*shard, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	if i < 0 || i >= len(s.shards) {
		return nil, configErr("shard", "index %d out of range [0,%d)", i, len(s.shards))
	}
	return s.shards[i], nil
}

// ShardPolicy reports the live discipline of one shard: its current
// policy, or degraded state if the shard has been degraded.
func (s *Service) ShardPolicy(shard int) (p Policy, degraded bool, err error) {
	sh, err := s.shardAt(shard)
	if err != nil {
		return "", false, err
	}
	sh.mu.Lock()
	p, degraded = sh.policy, sh.degraded
	sh.mu.Unlock()
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
	now := sh.enter()
	lease, w, err := sh.admitLocked(resourceName, owner, now, ttl, opt.Wait)
	sh.leave()
	if w == nil {
		return lease, err
	}
	return s.await(sh, resourceName, w, opt)
}

// admitLocked is Acquire's decision: grant the lease, refuse typed, or
// queue the request (the returned waiter).
func (sh *shard) admitLocked(resourceName, owner string, now time.Time, ttl time.Duration, wait bool) (Lease, *waiter, error) {
	// Re-checked under the shard guard so no waiter can slip into the
	// queue after Close's or Drain's flush pass.
	if sh.svc.closed.Load() {
		return Lease{}, nil, ErrClosed
	}
	if sh.svc.draining.Load() {
		return Lease{}, nil, ErrDraining
	}
	sh.counters.Acquires++
	r := sh.resourceLocked(resourceName)
	if r.holder == nil && (sh.degraded || sh.policy == PolicyBroadcast || len(r.q) == 0) {
		sh.counters.ImmediateGrants++
		sh.grantWait.Add(0)
		return sh.newLeaseLocked(r, owner, now, ttl), nil, nil
	}
	// Held (or hand-off pending). Decide admission.
	var refusal error
	switch {
	case sh.degraded:
		// Shed-load mode: no queueing at all.
		sh.counters.DegradedSheds++
		refusal = ErrShed
	case !wait:
		sh.counters.NoWaitBusy++
		refusal = ErrNoWait
	case sh.queued >= sh.svc.cfg.QueueDepth:
		// Backpressure: the bounded admission queue deflects the
		// request instead of letting it pile on the resource.
		sh.counters.QueueFullSheds++
		refusal = ErrQueueFull
	}
	if refusal != nil {
		sh.gcLocked(r)
		return Lease{}, nil, refusal
	}
	w := &waiter{owner: owner, ttl: ttl, enq: now, grant: make(chan grantResult, 1)}
	r.q = append(r.q, w)
	sh.queued++
	return Lease{}, w, nil
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
// waiting. A waiter that is no longer queued was handed a lease by a
// migration to hand-off since the wake-up was sent; it claims nothing and
// goes back to take that lease from its grant channel, even if the
// lease has ended since.
func (s *Service) tryClaim(sh *shard, resourceName string, w *waiter) (Lease, bool, error) {
	now := s.clock.Now()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if w.flushed {
		return Lease{}, true, w.flushErr
	}
	if r := sh.res[resourceName]; r != nil && r.holder == nil && removeWaiter(sh, r, w) {
		sh.counters.BroadcastClaims++
		sh.grantWait.Add(uint64(now.Sub(w.enq)))
		return sh.newLeaseLocked(r, w.owner, now, w.ttl), true, nil
	}
	sh.counters.WastedWakeups++
	return Lease{}, false, nil
}

// abandonWait removes a timed-out waiter. If the waiter was already
// granted or flushed (the message raced the timeout), the pending
// outcome is consumed and returned instead.
func (s *Service) abandonWait(sh *shard, resourceName string, w *waiter) (Lease, bool, error) {
	sh.mu.Lock()
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
	sh.mu.Unlock()
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
	return s.ReleaseFenced(resourceName, token, 0)
}

// ReleaseFenced ends a lease by token, additionally validated against
// the lease's fencing token. Fence 0 makes no fence claim (identical to
// Release). A non-zero stale fence is rejected ErrFenced — the typed
// verdict a zombie client gets even after the gone-ring has forgotten
// its token, because the per-resource fence counter is never reset.
func (s *Service) ReleaseFenced(resourceName string, token, fence uint64) error {
	if s.closed.Load() {
		return ErrClosed
	}
	sh := s.shardFor(resourceName)
	// enter expires first: a release racing its own deadline resolves to
	// the typed expiry, never to a silent double-release.
	now := sh.enter()
	r := sh.res[resourceName]
	err := sh.verdictLocked(r, resourceName, token, fence)
	if err == nil {
		sh.endLeaseLocked(r, nil, now)
	} else {
		sh.counters.BadReleases++
	}
	sh.leave()
	return err
}

// Resume re-validates a lease after a reconnect: if token still holds
// the resource the live lease is returned and the client may carry on;
// otherwise the typed reason it cannot (see verdictLocked). Resume never
// mutates lease state: it is safe to call any number of times.
func (s *Service) Resume(resourceName string, token, fence uint64) (Lease, error) {
	if resourceName == "" {
		return Lease{}, configErrf("empty resource name")
	}
	if s.closed.Load() {
		return Lease{}, ErrClosed
	}
	sh := s.shardFor(resourceName)
	sh.enter()
	var lease Lease
	r := sh.res[resourceName]
	err := sh.verdictLocked(r, resourceName, token, fence)
	if err == nil {
		lease = r.holder.lease
		sh.counters.Resumes++
	}
	sh.leave()
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
	now := sh.enter()
	var lease Lease
	r := sh.res[resourceName]
	held := r != nil && r.holder != nil
	if held {
		lease = sh.endLeaseLocked(r, ErrRevoked, now)
	}
	sh.leave()
	return lease, held, nil
}

// SweepExpired reclaims every due lease across all shards and runs the
// starvation watchdog; it returns how many leases expired. The
// background sweeper calls it; tests with NoSweeper call it manually.
func (s *Service) SweepExpired() int {
	total := 0
	for _, sh := range s.shards {
		sh.enter()
		total += len(sh.expired)
		sh.leave()
	}
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
			sh.mu.Lock()
			if len(sh.heap) > 0 {
				if d := sh.heap[0].lease.Deadline.Sub(now); d < nap {
					nap = d
				}
			}
			sh.mu.Unlock()
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
		sh.mu.Lock()
		total += sh.live
		sh.mu.Unlock()
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
		sh.mu.Lock()
		sh.epoch++
		sh.flushWaitersLocked(ErrDraining)
		sh.mu.Unlock()
	}

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
		now := sh.enter()
		for _, r := range sh.res {
			if r.holder != nil {
				sh.endLeaseLocked(r, ErrRevoked, now)
			}
		}
		sh.leave()
	}
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
		sh.mu.Lock()
		sh.flushWaitersLocked(ErrClosed)
		sh.mu.Unlock()
	}
	return nil
}
