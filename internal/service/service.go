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
//     allowed to hammer the resource, and a queued waiter sleeps on its
//     own doorbell instead of polling: it is woken once, by the event
//     that decided its outcome, and finds the outcome where the event
//     left it.
//   - PolicyHandoff is the software form of QOLB/IQOLB's releaser→waiter
//     grant: a release (or expiry) builds the next lease while still
//     holding the shard and delivers it to exactly one queued waiter in
//     one transfer. Nobody re-contends.
//   - PolicyBroadcast is the plain-RFO baseline: a release marks the
//     resource free and wakes every waiter, who all race to re-acquire;
//     all but one wake-up is wasted (counted as WastedWakeups, the
//     service's analogue of redundant bus transactions).
//
// Each shard is a core and an edge. The core (core.go) is a pure state
// machine: the lease table, the admission queue, the expiry heap, the
// fences and every grant decision, with no goroutines, channels, guard
// or clock of its own. Each verb takes now and returns its reply, and
// leaves effects — waiter granted, woken or failed; lease expired; shard
// degraded — for the edge. The edge (shard, below) holds the guard,
// reads the clock, calls one verb per critical section and, in leave,
// delivers the effects: it rings the doorbell (a buffered-1 channel) of
// each waiter an effect names, and calls OnExpire and OnDegrade once the
// guard is released. A waiter is only an ID to the core; a woken waiter
// asks the core for its outcome, and that one poll also re-contends a
// broadcast wake-up or abandons a timed-out wait.
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
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"iqolb/internal/adaptive"
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

// shard is one lock domain: a lease core and the edge that serves it.
// The edge holds the guard, reads the clock, calls one core verb and
// delivers the verb's effects; every lease decision is the core's.
type shard struct {
	svc *Service
	id  int

	// mu guards core and bells. An operation takes it with enter and
	// gives it up with leave; a section that only reads locks it directly.
	mu   locks.Lock
	core core
	// bells is the doorbell of each parked waiter: a buffered-1 channel
	// leave rings for every effect that names the waiter.
	bells map[waiterID]chan struct{}
}

// enter opens an operation's critical section: it reads the clock and
// takes the guard.
func (sh *shard) enter() time.Time {
	now := sh.svc.clock.Now()
	sh.mu.Lock()
	return now
}

// leave closes the critical section: it rings the doorbell of every
// waiter an effect names, releases the guard and then, with no guard
// held, tells the observers of expiries and degradation. The callbacks
// run on the operation's own goroutine, so they may call back into the
// service, this shard included.
func (sh *shard) leave() {
	fx, notify := sh.core.fx, false
	for i := range fx {
		if fx[i].w == 0 {
			notify = true
			continue
		}
		select {
		case sh.bells[fx[i].w] <- struct{}{}:
		default: // already rung; the waiter will find the latest outcome
		}
	}
	sh.core.fx = fx[:0]
	if notify {
		sh.core.fx = nil // the callbacks below read fx unguarded
	}
	sh.mu.Unlock()
	if !notify {
		return
	}
	cfg := &sh.svc.cfg
	for _, e := range fx {
		switch {
		case e.kind == effExpired && cfg.OnExpire != nil:
			cfg.OnExpire(e.lease)
		case e.kind == effDegraded && cfg.OnDegrade != nil:
			cfg.OnDegrade(sh.id, e.reason)
		}
	}
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
	token := func() uint64 { return s.tokens.Add(1) }
	for i := range s.shards {
		mu, err := locks.New(full.Lock, lockOpts...)
		if err != nil {
			return nil, configErr("lock", "shard %d: %v", i, err)
		}
		s.shards[i] = &shard{svc: s, id: i, mu: mu, core: newCore(&full, token),
			bells: make(map[waiterID]chan struct{})}
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

// run runs one core verb under the shard's guard and delivers its
// effects. The hot verbs (Acquire, ReleaseFenced) spell this out.
func (sh *shard) run(verb func(c *core, now time.Time)) {
	now := sh.enter()
	verb(&sh.core, now)
	sh.leave()
}

// each runs verb on every shard in turn.
func (s *Service) each(verb func(c *core, now time.Time)) {
	for _, sh := range s.shards {
		sh.run(verb)
	}
}

// onShard runs verb on shard i, once the index resolves.
func (s *Service) onShard(i int, verb func(c *core, now time.Time)) error {
	sh, err := s.shardAt(i)
	if err == nil {
		sh.run(verb)
	}
	return err
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
	err = s.onShard(shard, func(c *core, _ time.Time) { p, degraded = c.policy, c.degraded })
	return p, degraded, err
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
// are typed; see errors.go. Acquire is Admit, then the Pending's Wait.
func (s *Service) Acquire(resourceName, owner string, opt AcquireOptions) (Lease, error) {
	lease, p, err := s.Admit(resourceName, owner, opt)
	if p != nil {
		return p.Wait()
	}
	return lease, err
}

// Pending is an acquire that admission queued. Wait parks until the
// acquire is decided: granted, failed typed, or timed out once MaxWait,
// counted from admission, has run out. Wait must be called exactly once.
type Pending interface {
	Wait() (Lease, error)
}

// Admit is the half of Acquire that never waits. It grants a free
// resource or refuses typed, and returns that outcome with a nil Pending;
// otherwise it queues the request and returns the Pending to wait on.
func (s *Service) Admit(resourceName, owner string, opt AcquireOptions) (Lease, Pending, error) {
	if resourceName == "" {
		return Lease{}, nil, configErrf("empty resource name")
	}
	if s.closed.Load() {
		return Lease{}, nil, ErrClosed
	}
	if s.draining.Load() {
		return Lease{}, nil, ErrDraining
	}
	ttl := s.clampTTL(opt.TTL)
	sh := s.shardFor(resourceName)
	now := sh.enter()
	lease, w, err := sh.core.acquire(now, resourceName, owner, ttl, opt.Wait)
	if w == 0 {
		sh.leave()
		return lease, nil, err
	}
	p := waitingPool.Get().(*waiting)
	p.sh, p.w, p.timer = sh, w, nil
	sh.bells[w] = p.bell
	sh.leave()
	if opt.MaxWait > 0 {
		p.timer = s.clock.NewTimer(opt.MaxWait)
	}
	return Lease{}, p, nil
}

// waiting is the Service's Pending: a queued waiter's ID, its doorbell
// and its MaxWait timer. It is recycled, doorbell and all, once its Wait
// returns.
type waiting struct {
	sh    *shard
	w     waiterID
	bell  chan struct{}
	timer Timer // nil: no MaxWait
}

var waitingPool = sync.Pool{New: func() any { return &waiting{bell: make(chan struct{}, 1)} }}

// Wait parks a queued waiter on its doorbell. Each ring, and the MaxWait
// timer, sends it back to the core to ask what became of it: granted,
// failed, or still queued (a broadcast wake-up re-contends; a timeout
// abandons the wait).
func (p *waiting) Wait() (Lease, error) {
	var timeout <-chan time.Time
	if p.timer != nil {
		timeout = p.timer.C()
		defer p.timer.Stop()
	}
	for sh := p.sh; ; {
		var abandon bool
		select {
		case <-p.bell:
		case _, abandon = <-timeout: // MaxWait ran out
		}
		now := sh.enter()
		lease, done, err := sh.core.poll(now, p.w, abandon)
		if done {
			delete(sh.bells, p.w) // so no later leave rings the bell
		}
		sh.leave()
		if done {
			if len(p.bell) > 0 {
				<-p.bell // a ring this wait did not need
			}
			waitingPool.Put(p)
			return lease, err
		}
	}
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
	// The core expires first: a release racing its own deadline resolves
	// to the typed expiry, never to a silent double-release.
	now := sh.enter()
	err := sh.core.release(now, resourceName, token, fence)
	sh.leave()
	return err
}

// Resume re-validates a lease after a reconnect: if token still holds
// the resource the live lease is returned and the client may carry on;
// otherwise the typed reason it cannot (see core.verdict). Resume never
// mutates lease state: it is safe to call any number of times.
func (s *Service) Resume(resourceName string, token, fence uint64) (lease Lease, err error) {
	if resourceName == "" {
		return Lease{}, configErrf("empty resource name")
	}
	if s.closed.Load() {
		return Lease{}, ErrClosed
	}
	s.shardFor(resourceName).run(func(c *core, now time.Time) { lease, err = c.resume(now, resourceName, token, fence) })
	return lease, err
}

// Revoke force-releases a resource's current lease (administrative
// preemption); the revoked lease (if any) is returned and the resource
// is granted onward. A late Release of the revoked token reports
// ErrRevoked.
func (s *Service) Revoke(resourceName string) (lease Lease, held bool, err error) {
	if s.closed.Load() {
		return Lease{}, false, ErrClosed
	}
	s.shardFor(resourceName).run(func(c *core, now time.Time) { lease, held = c.revoke(now, resourceName) })
	return lease, held, nil
}

// SweepExpired reclaims every due lease across all shards and runs the
// starvation watchdog; it returns how many leases expired. The
// background sweeper calls it; tests with NoSweeper call it manually.
func (s *Service) SweepExpired() int {
	total := 0
	s.each(func(c *core, now time.Time) {
		n := c.counters.Expiries
		c.settle(now)
		total += int(c.counters.Expiries - n)
	})
	return total
}

// sweeper is the background expiry loop: it wakes when the cores next
// need time to pass (bounded so the starvation watchdog runs regularly)
// and sweeps.
func (s *Service) sweeper() {
	defer close(s.sweeperDone)
	const maxNap = 50 * time.Millisecond
	for {
		// A due deadline naps 0 and sweeps at once; the sweep settles every
		// due lease, so the next nap is positive.
		nap := maxNap
		now := s.clock.Now()
		for _, sh := range s.shards {
			sh.mu.Lock()
			next, ok := sh.core.nextDeadline()
			sh.mu.Unlock()
			if d := next.Sub(now); ok && d < nap {
				nap = d
			}
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

// liveLeaseCount sums live leases across shards.
func (s *Service) liveLeaseCount() int {
	total := 0
	s.each(func(c *core, _ time.Time) { total += c.live })
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
	s.each(func(c *core, now time.Time) { c.shut(now, ErrDraining) })

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
	s.each(func(c *core, now time.Time) {
		for name := range c.res {
			c.revoke(now, name)
		}
	})
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
	s.each(func(c *core, now time.Time) { c.shut(now, ErrClosed) })
	return nil
}
