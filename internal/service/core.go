package service

import (
	"container/heap"
	"fmt"
	"time"

	"iqolb/internal/stats"
)

// core is one shard's lease state machine: the lease table, its
// admission queue, the expiry heap, the fencing counters and the shard's
// discipline, and every grant decision made over them. It has no
// goroutines, no channels, no guard of its own and no clock reads. The
// edge (shard) holds the guard, reads the clock and calls one verb, which
// takes now, returns its reply and appends what it did that someone else
// must hear of to fx:
// waiter w granted lease L, woken to re-contend, or failed with an error;
// lease L expired; the shard degraded. Every verb first runs settle.
//
// A queued acquire is a waiter ID. Its outcome — queued, granted a lease,
// failed with an error — is a record here, resolved once, by the event.
// The edge rings the waiter's doorbell for each effect that names it, and
// the waiter comes back with poll to take whatever the event left.
type core struct {
	depth int           // admission queue bound (Config.QueueDepth)
	bound time.Duration // starvation bound; <= 0 disables the watchdog
	token func() uint64 // draws a service-wide unique lease token
	hooks coreHooks

	// degraded is shed-load mode: the queued waiters were failed with
	// ErrDegraded, no new one is admitted (ErrShed), and a free resource
	// is still granted. The watchdog or degrade sets it, restore clears it.
	degraded      bool
	degradeReason string
	// policy is the live wakeup discipline. It starts at Config.Policy and
	// moves under migrate; every grant decision reads it here, so a flip
	// has one place in the order of grants — the epoch fence.
	policy Policy
	// epoch counts discipline changes (migrations, degrades, restores,
	// drains).
	epoch uint64
	// armedAt re-arms the starvation watchdog: waits are measured from
	// max(enqueue, armedAt), so a discipline change gives the new policy a
	// full bound to prove itself before the watchdog may degrade the shard.
	armedAt time.Time
	// refusal is ErrDraining or ErrClosed once shut: every later acquire
	// gets it.
	refusal error
	res     map[string]*resource
	waiters map[waiterID]*waiter
	lastID  waiterID
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
	fx        []effect        // drained by the edge after every verb
}

// coreHooks are seeded grant bugs. Only in-package tests set them, to
// prove that the linearizability harness and the core replay catch real
// hand-off bugs.
type coreHooks struct {
	// brokenHandoff: the hand-off grants the waiter but "forgets" to
	// record the transfer, so a racing acquire is granted a second live
	// lease.
	brokenHandoff bool
	// doubleClaim: a poll claims the free resource for a waiter that was
	// already granted — a broadcast wake-up acted on after a flip to
	// hand-off granted the waiter and that lease ended — and drops the
	// first grant on the floor.
	doubleClaim bool
}

type waiterID uint64

// waiter is one queued acquire's record; done marks its outcome final
// (lease, or err).
type waiter struct {
	id    waiterID
	res   string
	owner string
	ttl   time.Duration
	enq   time.Time
	done  bool
	lease Lease
	err   error
}

type effectKind uint8

const (
	effGrant    effectKind = iota // waiter w was granted lease
	effWake                       // waiter w should re-contend (broadcast)
	effFail                       // waiter w failed with err
	effExpired                    // lease expired
	effDegraded                   // the shard degraded for reason
)

// effect is one thing a verb did that the edge delivers once the guard is
// released; w is 0 for the observer-only kinds.
type effect struct {
	kind   effectKind
	w      waiterID
	lease  Lease
	err    error
	reason string
}

// leaseState is the core's record of a live lease. heapIdx is its slot in
// the expiry heap, kept current by the heap's Swap, so the lease's end
// removes its entry and the heap holds live leases only.
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

func newCore(cfg *Config, token func() uint64) core {
	return core{
		depth:   cfg.QueueDepth,
		bound:   cfg.StarvationBound,
		token:   token,
		policy:  cfg.Policy,
		res:     make(map[string]*resource),
		waiters: make(map[waiterID]*waiter),
		gone:    make(map[uint64]error),
		fences:  make(map[string]uint64),
	}
}

// settle is every verb's prologue: reclaim the leases that are due, so an
// operation racing a deadline sees the typed expiry and never a lease
// about to vanish, then run the starvation watchdog. Called alone, it is
// the sweeper's verb.
func (c *core) settle(now time.Time) {
	for len(c.heap) > 0 && !c.heap[0].lease.Deadline.After(now) {
		// A heap entry is its resource's holder: newLease makes it both,
		// end unmakes both, and a held resource's entry is never collected.
		c.end(c.res[c.heap[0].lease.Resource], ErrLeaseExpired, now)
	}
	if c.degraded || c.bound <= 0 || c.queued == 0 {
		// Nobody waits: skip the scan. The prologue runs on every op, so
		// with private (uncontended) resources this is the difference
		// between O(1) and O(resources) per op.
		return
	}
	// Queues are FIFO, so each head is its queue's oldest waiter — to
	// within the guard wait between an acquire's clock read and its
	// enqueue, far below any starvation bound.
	oldest := now
	for _, r := range c.res {
		if len(r.q) > 0 && r.q[0].enq.Before(oldest) {
			oldest = r.q[0].enq
		}
	}
	if c.armedAt.After(oldest) {
		oldest = c.armedAt // re-armed since the oldest enqueue
	}
	if age := now.Sub(oldest); age > c.bound {
		c.shedLoad(fmt.Sprintf("starvation: waiter queued %v > bound %v", age, c.bound))
	}
}

// nextDeadline is when time next matters to the core: its earliest live
// lease deadline; ok is false while no lease is live.
func (c *core) nextDeadline() (next time.Time, ok bool) {
	if len(c.heap) == 0 {
		return time.Time{}, false
	}
	return c.heap[0].lease.Deadline, true
}

// acquire grants a free resource, refuses typed, or queues the request
// and returns its waiter ID.
func (c *core) acquire(now time.Time, name, owner string, ttl time.Duration, wait bool) (Lease, waiterID, error) {
	c.settle(now)
	if c.refusal != nil {
		return Lease{}, 0, c.refusal
	}
	c.counters.Acquires++
	r := c.resource(name)
	if r.holder == nil && (c.degraded || c.policy == PolicyBroadcast || len(r.q) == 0) {
		c.counters.ImmediateGrants++
		c.grantWait.Add(0)
		return c.newLease(r, owner, now, ttl), 0, nil
	}
	// Held (or hand-off pending). Decide admission.
	var refusal error
	switch {
	case c.degraded:
		// Shed-load mode: no queueing at all.
		c.counters.DegradedSheds++
		refusal = ErrShed
	case !wait:
		c.counters.NoWaitBusy++
		refusal = ErrNoWait
	case c.queued >= c.depth:
		// Backpressure: the bounded admission queue deflects the request
		// instead of letting it pile on the resource.
		c.counters.QueueFullSheds++
		refusal = ErrQueueFull
	}
	if refusal != nil {
		c.gc(r)
		return Lease{}, 0, refusal
	}
	c.lastID++
	w := &waiter{id: c.lastID, res: name, owner: owner, ttl: ttl, enq: now}
	c.waiters[w.id] = w
	r.q = append(r.q, w)
	c.queued++
	return Lease{}, w.id, nil
}

// poll is a woken waiter's one question: what became of me? A resolved
// waiter takes its outcome and its record is forgotten. A queued one
// either abandons (timed out) or re-contends: it claims the resource if it
// is free — only broadcast leaves a free resource queued on — and
// otherwise counts a wasted wake-up and waits on.
func (c *core) poll(now time.Time, id waiterID, abandon bool) (Lease, bool, error) {
	c.settle(now)
	w := c.waiters[id]
	r := c.res[w.res]
	free := r == nil || r.holder == nil
	if !w.done && !abandon && !free {
		c.counters.WastedWakeups++
		return Lease{}, false, nil
	}
	delete(c.waiters, id)
	if w.done && !(c.hooks.doubleClaim && w.err == nil && free) {
		return w.lease, true, w.err
	}
	if !w.done {
		for i, o := range r.q {
			if o == w {
				r.q = append(r.q[:i], r.q[i+1:]...)
				break
			}
		}
		c.queued--
		if abandon {
			c.counters.Timeouts++
			c.gc(r)
			return Lease{}, true, ErrWaitTimeout
		}
	}
	r = c.resource(w.res) // collected only under the doubleClaim hook
	c.counters.BroadcastClaims++
	c.grantWait.Add(uint64(now.Sub(w.enq)))
	return c.newLease(r, w.owner, now, w.ttl), true, nil
}

// release ends the lease token holds, if the claim (token, fence) is good.
func (c *core) release(now time.Time, name string, token, fence uint64) error {
	c.settle(now)
	r := c.res[name]
	err := c.verdict(r, name, token, fence)
	if err == nil {
		c.end(r, nil, now)
	} else {
		c.counters.BadReleases++
	}
	return err
}

// resume re-validates a lease after a reconnect; it never mutates lease
// state.
func (c *core) resume(now time.Time, name string, token, fence uint64) (Lease, error) {
	c.settle(now)
	r := c.res[name]
	if err := c.verdict(r, name, token, fence); err != nil {
		return Lease{}, err
	}
	c.counters.Resumes++
	return r.holder.lease, nil
}

// revoke force-ends the resource's live lease, if any, and passes the
// resource on.
func (c *core) revoke(now time.Time, name string) (Lease, bool) {
	c.settle(now)
	r := c.res[name]
	if r == nil || r.holder == nil {
		return Lease{}, false
	}
	return c.end(r, ErrRevoked, now), true
}

// migrate flips the live policy (due expiries were passed on under the
// old one), re-arms the watchdog and re-dispatches every free-but-queued
// resource under the new discipline: a head waiter is granted directly
// on →handoff, the pack is woken on →broadcast. A degraded shard only
// records the policy it will resume with.
func (c *core) migrate(now time.Time, p Policy) {
	c.settle(now)
	if c.policy == p {
		return
	}
	c.policy = p
	c.epoch++
	c.armedAt = now
	c.counters.Migrations++
	if c.degraded {
		return // nobody is queued, and nobody will be until restore
	}
	for _, r := range c.res {
		if r.holder == nil && len(r.q) > 0 {
			c.pass(r, now)
		}
	}
}

// degrade puts the shard into shed-load mode, as the watchdog would.
func (c *core) degrade(now time.Time, reason string) {
	c.settle(now)
	c.shedLoad(reason)
}

// restore returns a degraded shard to queueing service under its recorded
// policy, with the watchdog re-armed.
func (c *core) restore(now time.Time) {
	c.settle(now)
	if c.degraded {
		c.degraded, c.degradeReason = false, ""
		c.epoch++
		c.armedAt = now
		c.counters.Restores++
	}
}

// shut fails every queued waiter with err (ErrDraining, ErrClosed) and
// refuses every later acquire with it. The epoch moves, so no grant
// decided before the flush can land after it.
func (c *core) shut(now time.Time, err error) {
	c.settle(now)
	c.epoch++
	c.refusal = err
	c.flush(err)
}

// shedLoad enters shed-load mode (see core.degraded). Failing the queue is
// the serving-layer analogue of the simulator flushing held delays when it
// degrades to plain RFO.
func (c *core) shedLoad(reason string) {
	if c.degraded {
		return
	}
	c.degraded, c.degradeReason = true, reason
	c.epoch++
	c.counters.Degrades++
	c.flush(ErrDegraded)
	c.fx = append(c.fx, effect{kind: effDegraded, reason: reason})
}

// flush fails every queued waiter with err and empties the admission
// queue.
func (c *core) flush(err error) {
	for _, r := range c.res {
		for _, w := range r.q {
			c.counters.Flushed++
			c.resolve(w, Lease{}, err)
		}
		r.q = nil
	}
	c.queued = 0
}

// resolve records a waiter's final outcome and the effect that tells it.
func (c *core) resolve(w *waiter, lease Lease, err error) {
	w.done, w.lease, w.err = true, lease, err
	kind := effGrant
	if err != nil {
		kind = effFail
	}
	c.fx = append(c.fx, effect{kind: kind, w: w.id, lease: lease, err: err})
}

// rememberGone records why a token's lease ended so a late release is
// typed; the ring bounds memory.
func (c *core) rememberGone(token uint64, cause error) {
	if old := c.goneRing[c.goneNext]; old != 0 {
		delete(c.gone, old)
	}
	c.goneRing[c.goneNext] = token
	c.goneNext = (c.goneNext + 1) % goneRingSize
	c.gone[token] = cause
}

// resource returns (creating if needed) the named resource.
func (c *core) resource(name string) *resource {
	r := c.res[name]
	if r == nil {
		r = &resource{name: name}
		c.res[name] = r
	}
	return r
}

// gc drops an idle resource entry.
func (c *core) gc(r *resource) {
	if r.holder == nil && len(r.q) == 0 {
		delete(c.res, r.name)
	}
}

// newLease creates a live lease for r and schedules its expiry.
func (c *core) newLease(r *resource, owner string, now time.Time, ttl time.Duration) Lease {
	c.fences[r.name]++
	lease := Lease{
		Resource: r.name,
		Owner:    owner,
		Token:    c.token(),
		Fence:    c.fences[r.name],
		Deadline: now.Add(ttl),
	}
	r.holder = &leaseState{lease: lease, grantedAt: now}
	heap.Push(&c.heap, r.holder)
	c.live++
	c.counters.Grants++
	return lease
}

// end ends r's live lease and passes the resource on. cause is nil for a
// release; otherwise it is the typed verdict (ErrLeaseExpired,
// ErrRevoked) a late release of the dead token gets.
func (c *core) end(r *resource, cause error, now time.Time) Lease {
	ls := r.holder
	switch cause {
	case nil:
		c.counters.Releases++
		c.hold.Add(uint64(now.Sub(ls.grantedAt)))
	case ErrLeaseExpired:
		c.counters.Expiries++
		c.fx = append(c.fx, effect{kind: effExpired, lease: ls.lease})
	case ErrRevoked:
		c.counters.Revocations++
	}
	if cause != nil {
		c.rememberGone(ls.lease.Token, cause)
	}
	r.holder = nil
	c.live--
	heap.Remove(&c.heap, ls.heapIdx)
	c.pass(r, now)
	return ls.lease
}

// pass hands a freed resource on per the live policy. Hand-off builds the
// head waiter's lease here, under the guard, and delivers it in one
// transfer; nobody re-contends. Broadcast wakes the whole pack to
// re-contend, and all but one wake-up is wasted.
func (c *core) pass(r *resource, now time.Time) {
	if len(r.q) == 0 {
		c.gc(r)
		return
	}
	if c.policy == PolicyBroadcast {
		c.counters.BroadcastWakeups += uint64(len(r.q))
		for _, w := range r.q {
			c.fx = append(c.fx, effect{kind: effWake, w: w.id})
		}
		return
	}
	w := r.q[0]
	r.q = r.q[1:]
	c.queued--
	lease := c.newLease(r, w.owner, now, w.ttl)
	c.counters.Handoffs++
	c.grantWait.Add(uint64(now.Sub(w.enq)))
	if c.hooks.brokenHandoff {
		// Seeded bug: the transfer is "forgotten".
		heap.Remove(&c.heap, r.holder.heapIdx)
		r.holder = nil
	}
	c.resolve(w, lease, nil)
}

// verdict types the claim (token, fence) on the named resource, whose
// entry is r (nil if it has none): nil when token holds it and the fence
// claim, if any, matches; otherwise why not — ErrLeaseExpired or
// ErrRevoked while the gone-ring remembers the token, ErrFenced when the
// fence claim is provably stale, ErrNotHeld for the rest.
func (c *core) verdict(r *resource, name string, token, fence uint64) error {
	if r != nil && r.holder != nil && r.holder.lease.Token == token {
		if fence == 0 || fence == r.holder.lease.Fence {
			return nil
		}
		// The token matches but the fence claim does not: a confused
		// client must not act on a lease it cannot prove is its own.
		// ErrFenced, below.
	} else if cause, ok := c.gone[token]; ok {
		return cause
	} else if fence == 0 || fence >= c.fences[name] {
		return ErrNotHeld
	}
	c.counters.FencedRejects++
	return ErrFenced
}
