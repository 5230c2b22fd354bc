package service

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// This file replays seeded operation streams against the shard core
// directly: single-threaded, no goroutines, every choice drawn from the
// seed, so a failing seed reproduces (up to token numbering, which the
// core's map iteration may permute). The replay plays the edge — it parks the waiters the core queues, wakes them on the
// core's effects and polls them back — and after every operation checks
// the core against the sequential lease model and the service's
// invariants.

// coreReplayOps is each seed's operation count.
const coreReplayOps = 100_000

// staleWindow is how many ended leases the replay keeps to present again
// (late releases, stale resumes). It is far below goneRingSize, so the
// core still remembers why each of them ended; tokens that leave the
// window are never presented again and are pruned from the model state.
const staleWindow = 64

// parked is the replay's record of one waiter: resolved and outcome are
// what the core's effects said, rung whether a wake-up is pending.
type parked struct {
	res      string
	rung     bool
	resolved bool
	lease    Lease
	err      error
}

type coreReplay struct {
	rng     *rand.Rand
	c       *core
	now     time.Time
	model   map[string]any // per-resource LeaseModel state
	live    map[string]Lease
	fence   map[string]uint64 // last fence granted per resource
	ended   []Lease           // ring of the last staleWindow ended leases
	endNext int
	parked  map[waiterID]*parked
	order   []waiterID // the parked waiters, in park order
	op      int
	what    string // the current operation, for failure messages
	starved uint64 // degrades the starvation watchdog decided
}

// replayCore runs one seed and returns the core's counters, how many of
// its degrades the watchdog decided, and the first violation, or nil.
func replayCore(seed int64, ops int, hooks coreHooks) (Counters, uint64, error) {
	rng := rand.New(rand.NewSource(seed))
	var tokens uint64
	policy := PolicyHandoff
	if seed%2 == 1 {
		policy = PolicyBroadcast
	}
	cfg := Config{QueueDepth: 8, Policy: policy, StarvationBound: 150 * time.Millisecond}
	c := newCore(&cfg, func() uint64 { tokens++; return tokens })
	c.hooks = hooks
	d := &coreReplay{
		rng: rng, c: &c, now: time.Unix(1_000_000, 0),
		model: map[string]any{}, live: map[string]Lease{}, fence: map[string]uint64{},
		parked: map[waiterID]*parked{},
	}
	for d.op = 0; d.op < ops; d.op++ {
		if err := d.step(); err != nil {
			return c.counters, d.starved, fmt.Errorf("seed %d op %d (%s): %w", seed, d.op, d.what, err)
		}
	}
	if err := d.finish(); err != nil {
		return c.counters, d.starved, fmt.Errorf("seed %d shutdown (%s): %w", seed, d.what, err)
	}
	return c.counters, d.starved, nil
}

var replayResources = []string{"r0", "r1", "r2", "r3"}

// step runs one randomly chosen operation: the core's prologue alone
// (so effects of expiry and the watchdog linearize before the verb), then
// the verb, then the verb's effects, then the invariants.
func (d *coreReplay) step() error {
	c, rng := d.c, d.rng
	d.now = d.now.Add(time.Duration(rng.Intn(4)) * time.Millisecond)
	c.settle(d.now)
	if err := d.effects(); err != nil {
		return err
	}
	res := replayResources[rng.Intn(len(replayResources))]
	var err error
	switch k := rng.Intn(100); {
	case k < 30:
		err = d.acquire(res, rng.Intn(4) == 0)
	case k < 45:
		err = d.releaseLive()
	case k < 50:
		err = d.releaseStale()
	case k < 53:
		err = d.releaseWrongFence(res)
	case k < 58:
		err = d.resume()
	case k < 62:
		d.what = "revoke " + res
		l, ok := c.revoke(d.now, res)
		tok := uint64(0)
		if ok {
			tok = l.Token
			err = d.end(l)
		}
		if err == nil {
			err = d.stepModel(LeaseOp{Verb: VerbRevoke, Res: res}, tok)
		}
	case k < 88:
		err = d.poll(rng.Intn(5) == 0)
	case k < 92:
		d.what = "migrate"
		c.migrate(d.now, []Policy{PolicyHandoff, PolicyBroadcast}[rng.Intn(2)])
	case k < 94:
		d.what = "degrade"
		c.degrade(d.now, "replay")
	case k < 97:
		d.what = "restore"
		c.restore(d.now)
	default:
		// Let time run on: leases expire, waits age toward the bound.
		d.what = "advance"
		d.now = d.now.Add(time.Duration(rng.Intn(60)) * time.Millisecond)
		c.settle(d.now)
	}
	if err != nil {
		return err
	}
	if err := d.effects(); err != nil {
		return err
	}
	return d.invariants()
}

func (d *coreReplay) acquire(res string, noWait bool) error {
	d.what = fmt.Sprintf("acquire %s nowait=%v", res, noWait)
	ttl := time.Duration(5+d.rng.Intn(60)) * time.Millisecond
	l, w, err := d.c.acquire(d.now, res, "o", ttl, !noWait)
	in := LeaseOp{Verb: VerbAcquire, Res: res, NoWait: noWait}
	switch {
	case w != 0:
		if noWait {
			return errors.New("a no-wait acquire was queued")
		}
		d.parked[w] = &parked{res: res}
		d.order = append(d.order, w)
		return nil
	case err != nil:
		return d.stepModel(in, AcquireCode(err))
	}
	if err := d.grant(l); err != nil {
		return err
	}
	return d.stepModel(in, l.Token)
}

func (d *coreReplay) releaseLive() error {
	l, ok := d.pickLive()
	if !ok {
		d.what = "release (nothing live)"
		return nil
	}
	fence := uint64(0)
	if d.rng.Intn(2) == 0 {
		fence = l.Fence
	}
	d.what = fmt.Sprintf("release #%d fence %d", l.Token, fence)
	err := d.c.release(d.now, l.Resource, l.Token, fence)
	if err != nil {
		return fmt.Errorf("good release failed: %v", err)
	}
	if err := d.end(l); err != nil {
		return err
	}
	return d.stepModel(LeaseOp{Verb: VerbRelease, Res: l.Resource, Token: l.Token}, "ok")
}

func (d *coreReplay) releaseStale() error {
	if len(d.ended) == 0 {
		d.what = "stale release (nothing ended)"
		return nil
	}
	l := d.ended[d.rng.Intn(len(d.ended))]
	d.what = fmt.Sprintf("stale release #%d", l.Token)
	err := d.c.release(d.now, l.Resource, l.Token, l.Fence)
	if err == nil {
		return errors.New("a stale token released a lease")
	}
	return d.stepModel(LeaseOp{Verb: VerbRelease, Res: l.Resource, Token: l.Token}, ReleaseCode(err))
}

// releaseWrongFence presents a fence claim that cannot be right: a token
// no grant ever had, with a fence below or above the resource's counter,
// or the live token with a fence that is not its own. The second is
// outside the model's alphabet (it tracks no fences) and is checked
// directly: ErrFenced, and nothing moves.
func (d *coreReplay) releaseWrongFence(res string) error {
	if l, ok := d.live[res]; ok && d.rng.Intn(2) == 0 {
		d.what = fmt.Sprintf("release live #%d with fence %d", l.Token, l.Fence+1)
		if err := d.c.release(d.now, res, l.Token, l.Fence+1); !errors.Is(err, ErrFenced) {
			return fmt.Errorf("wrong fence on the live token: %v, want ErrFenced", err)
		}
		return nil
	}
	tok := 1<<62 + uint64(d.op)
	fence := uint64(d.rng.Intn(int(d.fence[res]) + 2))
	d.what = fmt.Sprintf("release unknown #%d fence %d", tok, fence)
	err := d.c.release(d.now, res, tok, fence)
	want := ErrNotHeld
	if fence != 0 && fence < d.fence[res] {
		want = ErrFenced
	}
	if err != want {
		return fmt.Errorf("unknown token: %v, want %v", err, want)
	}
	return d.stepModel(LeaseOp{Verb: VerbRelease, Res: res, Token: tok}, ReleaseCode(err))
}

func (d *coreReplay) resume() error {
	l, ok := d.pickLive()
	if !ok || d.rng.Intn(3) == 0 {
		if len(d.ended) == 0 {
			d.what = "resume (nothing to resume)"
			return nil
		}
		l = d.ended[d.rng.Intn(len(d.ended))]
	}
	d.what = fmt.Sprintf("resume #%d", l.Token)
	got, err := d.c.resume(d.now, l.Resource, l.Token, l.Fence)
	in := LeaseOp{Verb: VerbResume, Res: l.Resource, Token: l.Token}
	if err != nil {
		return d.stepModel(in, ReleaseCode(err))
	}
	if got != l {
		return fmt.Errorf("resume returned %+v, want %+v", got, l)
	}
	return d.stepModel(in, got.Token)
}

// poll wakes one parked waiter, as its doorbell or its MaxWait timer
// (abandon) would. Mostly it is a rung one; sometimes any, which is a
// spurious wake-up.
func (d *coreReplay) poll(abandon bool) error {
	n := len(d.order)
	if n == 0 {
		d.what = "poll (nobody parked)"
		return nil
	}
	i := d.rng.Intn(n)
	for k := 0; k < n && d.rng.Intn(5) > 0; k++ {
		if p := d.parked[d.order[(i+k)%n]]; p.rung || p.resolved {
			i = (i + k) % n
			break
		}
	}
	return d.pollWaiter(i, abandon)
}

// pollWaiter polls the i-th parked waiter and checks what it is told
// against what the effects said.
func (d *coreReplay) pollWaiter(i int, abandon bool) error {
	id := d.order[i]
	p := d.parked[id]
	d.what = fmt.Sprintf("poll waiter %d abandon=%v", id, abandon)
	p.rung = false
	l, done, err := d.c.poll(d.now, id, abandon)
	switch {
	case p.resolved && !done:
		return errors.New("a resolved waiter was told to wait on")
	case p.resolved && (l != p.lease || err != p.err):
		return fmt.Errorf("waiter resolved twice: effect said (%+v, %v), poll says (%+v, %v)", p.lease, p.err, l, err)
	case abandon && !done:
		return errors.New("an abandoned wait did not end")
	case !done:
		return nil
	}
	delete(d.parked, id)
	d.order = append(d.order[:i], d.order[i+1:]...)
	if p.resolved {
		return nil
	}
	in := LeaseOp{Verb: VerbAcquire, Res: p.res}
	if err != nil {
		return d.stepModel(in, AcquireCode(err))
	}
	// A broadcast waiter's re-contention won: the poll is the grant.
	if err := d.grant(l); err != nil {
		return err
	}
	return d.stepModel(in, l.Token)
}

// effects takes the core's effects in order: expiries end leases, grants
// and failures resolve waiters (exactly once each), wake-ups ring.
func (d *coreReplay) effects() error {
	defer func() { d.c.fx = d.c.fx[:0] }()
	for _, e := range d.c.fx {
		if e.kind == effExpired {
			if err := d.end(e.lease); err != nil {
				return err
			}
			if err := d.stepModel(LeaseOp{Verb: VerbExpire, Res: e.lease.Resource, Token: e.lease.Token}, nil); err != nil {
				return err
			}
			continue
		}
		if e.kind == effDegraded {
			if strings.HasPrefix(e.reason, "starvation") {
				d.starved++
			}
			continue
		}
		p := d.parked[e.w]
		switch {
		case p == nil:
			return fmt.Errorf("effect %d names waiter %d, which is not parked", e.kind, e.w)
		case e.kind == effWake:
			p.rung = true
			continue
		case p.resolved:
			return fmt.Errorf("waiter %d resolved twice", e.w)
		case e.kind == effGrant && d.oldest(p.res) != e.w:
			return fmt.Errorf("hand-off on %s granted waiter %d, not the oldest, %d", p.res, e.w, d.oldest(p.res))
		}
		p.resolved, p.lease, p.err, p.rung = true, e.lease, e.err, true
		in := LeaseOp{Verb: VerbAcquire, Res: p.res}
		if e.kind == effFail {
			if err := d.stepModel(in, AcquireCode(e.err)); err != nil {
				return err
			}
			continue
		}
		if err := d.grant(e.lease); err != nil {
			return err
		}
		if err := d.stepModel(in, e.lease.Token); err != nil {
			return err
		}
	}
	return nil
}

// grant records a new live lease: at most one per resource, fences
// strictly increasing per resource.
func (d *coreReplay) grant(l Lease) error {
	if old, ok := d.live[l.Resource]; ok {
		return fmt.Errorf("second live lease on %s: #%d while #%d lives", l.Resource, l.Token, old.Token)
	}
	if l.Fence <= d.fence[l.Resource] {
		return fmt.Errorf("fence on %s went %d → %d", l.Resource, d.fence[l.Resource], l.Fence)
	}
	d.fence[l.Resource] = l.Fence
	d.live[l.Resource] = l
	return nil
}

// end records a live lease's end and keeps it for stale probes; the
// lease that falls out of the window is forgotten by the model too.
func (d *coreReplay) end(l Lease) error {
	if d.live[l.Resource] != l {
		return fmt.Errorf("lease #%d ended, but the live lease on %s is %+v", l.Token, l.Resource, d.live[l.Resource])
	}
	delete(d.live, l.Resource)
	if len(d.ended) < staleWindow {
		d.ended = append(d.ended, l)
		return nil
	}
	old := d.ended[d.endNext]
	if st, ok := d.model[old.Resource].(modelState); ok {
		delete(st.expired, old.Token)
		delete(st.revoked, old.Token)
	}
	d.ended[d.endNext] = l
	d.endNext = (d.endNext + 1) % staleWindow
	return nil
}

// oldest is the resource's longest-parked unresolved waiter: the one a
// hand-off must grant.
func (d *coreReplay) oldest(res string) waiterID {
	for _, id := range d.order {
		if p := d.parked[id]; p.res == res && !p.resolved {
			return id
		}
	}
	return 0
}

func (d *coreReplay) pickLive() (Lease, bool) {
	l, ok := d.live[replayResources[d.rng.Intn(len(replayResources))]]
	return l, ok
}

// stepModel checks one output against LeaseModel.Step on the op's
// resource (the model keeps no cross-resource state).
func (d *coreReplay) stepModel(in LeaseOp, out any) error {
	st, ok := d.model[in.Res]
	if !ok {
		st = LeaseModel{}.Init()
	}
	next, legal := LeaseModel{}.Step(st, in, out)
	if !legal {
		return fmt.Errorf("model rejects %v → %v", in, out)
	}
	d.model[in.Res] = next
	return nil
}

// invariants are checked after every operation.
func (d *coreReplay) invariants() error {
	c := d.c
	cn := c.counters
	if cn.Grants != cn.Releases+cn.Expiries+cn.Revocations+uint64(c.live) {
		return fmt.Errorf("conservation: grants=%d releases=%d expiries=%d revocations=%d live=%d",
			cn.Grants, cn.Releases, cn.Expiries, cn.Revocations, c.live)
	}
	if len(c.heap) != c.live || c.live != len(d.live) {
		return fmt.Errorf("live leases: heap %d, core %d, granted and not ended %d", len(c.heap), c.live, len(d.live))
	}
	queued := 0
	for name, r := range c.res {
		queued += len(r.q)
		if l, ok := d.live[name]; ok != (r.holder != nil) || ok && r.holder.lease != l {
			return fmt.Errorf("%s: core holder %v, granted and not ended %+v", name, r.holder, l)
		}
	}
	if queued != c.queued || len(c.waiters) != len(d.parked) {
		return fmt.Errorf("queued %d, counted %d; waiter records %d, parked %d", queued, c.queued, len(c.waiters), len(d.parked))
	}
	return nil
}

// finish drains and closes the core as Drain and Close do, then collects
// every parked waiter: each must have resolved exactly once, and no lease
// may be left live.
func (d *coreReplay) finish() error {
	d.what = "drain"
	d.c.shut(d.now, ErrDraining)
	if err := d.effects(); err != nil {
		return err
	}
	if _, w, err := d.c.acquire(d.now, "r0", "late", time.Second, true); w != 0 || err != ErrDraining {
		return fmt.Errorf("acquire after the drain: waiter %d, %v; want ErrDraining", w, err)
	}
	for _, name := range replayResources {
		d.c.revoke(d.now, name) // the drain's stragglers
	}
	for _, e := range d.c.fx {
		if e.kind == effExpired {
			return errors.New("the straggler revocations expired a lease")
		}
	}
	d.c.fx = d.c.fx[:0]
	d.live = map[string]Lease{}
	d.what = "collect"
	for len(d.order) > 0 {
		if p := d.parked[d.order[0]]; !p.resolved {
			return fmt.Errorf("waiter %d on %s survived the drain", d.order[0], p.res)
		}
		if err := d.pollWaiter(0, false); err != nil {
			return err
		}
	}
	if d.c.live != 0 || d.c.queued != 0 || len(d.c.waiters) != 0 {
		return fmt.Errorf("after drain: live %d queued %d waiter records %d", d.c.live, d.c.queued, len(d.c.waiters))
	}
	return d.invariants()
}

// TestCoreReplay runs the seeded replay under both starting policies
// (migrations then move each seed between them, and degrade/restore
// through shed-load mode), and holds each seed to having taken every
// path: a replay that never hands off or never expires checks nothing.
func TestCoreReplay(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		cn, starved, err := replayCore(seed, coreReplayOps, coreHooks{})
		if err != nil {
			t.Fatal(err)
		}
		for name, n := range map[string]uint64{
			"handoffs": cn.Handoffs, "broadcast claims": cn.BroadcastClaims, "wasted wake-ups": cn.WastedWakeups,
			"expiries": cn.Expiries, "revocations": cn.Revocations, "timeouts": cn.Timeouts,
			"degrades": cn.Degrades, "restores": cn.Restores, "migrations": cn.Migrations,
			"resumes": cn.Resumes, "fenced rejects": cn.FencedRejects, "flushed": cn.Flushed,
			"queue-full sheds": cn.QueueFullSheds, "degraded sheds": cn.DegradedSheds, "no-wait busy": cn.NoWaitBusy,
			"watchdog degrade": starved,
		} {
			if n == 0 {
				t.Errorf("seed %d never took the %s path: %+v", seed, name, cn)
			}
		}
	}
}

// The canaries prove the replay has teeth: with a seeded grant bug the
// very first seed fails, within a few hundred operations.
func TestCoreReplayCatchesBrokenHandoff(t *testing.T) {
	testCoreCanary(t, coreHooks{brokenHandoff: true})
}

func TestCoreReplayCatchesDoubleClaim(t *testing.T) {
	testCoreCanary(t, coreHooks{doubleClaim: true})
}

func testCoreCanary(t *testing.T, hooks coreHooks) {
	const seeds = 4
	for seed := int64(1); seed <= seeds; seed++ {
		if _, _, err := replayCore(seed, coreReplayOps, hooks); err != nil {
			t.Logf("caught: %v", err)
			return
		}
	}
	t.Fatalf("seeded bug %+v survived %d seeds of %d ops; the replay is blind", hooks, seeds, coreReplayOps)
}

// TestStaleRetryAfterHandoff pins a broadcast waiter's re-contention
// against a flip it raced: the waiter was woken under broadcast, the shard
// migrated to hand-off and granted it a lease, and that lease ended
// (revoked) before the waiter polled. The waiter must take the lease it
// was granted — the one grant the core recorded for it — not claim a
// second one and drop the first on the floor, which would leave a
// revocation of a token no client ever saw. The doubleClaim hook
// re-creates exactly that bug.
func TestStaleRetryAfterHandoff(t *testing.T) {
	for _, hooks := range []coreHooks{{}, {doubleClaim: true}} {
		var tokens uint64
		c := newCore(&Config{QueueDepth: 8, Policy: PolicyBroadcast}, func() uint64 { tokens++; return tokens })
		c.hooks = hooks
		now := time.Unix(0, 0)
		hold, _, _ := c.acquire(now, "r", "holder", time.Minute, true)
		_, w, _ := c.acquire(now, "r", "w", time.Minute, true)
		if err := c.release(now, "r", hold.Token, 0); err != nil { // wakes w
			t.Fatal(err)
		}
		c.migrate(now, PolicyHandoff) // re-dispatch grants w
		revoked, ok := c.revoke(now, "r")
		if !ok || revoked.Owner != "w" {
			t.Fatalf("revoke: %+v %v, want w's lease", revoked, ok)
		}
		l, done, err := c.poll(now, w, false)
		if got := done && err == nil && l == revoked; got == hooks.doubleClaim {
			t.Fatalf("hooks %+v: stale poll = (%+v, %v, %v), want the revoked lease #%d iff no hook",
				hooks, l, done, err, revoked.Token)
		}
		if !hooks.doubleClaim && c.live != 0 {
			t.Fatalf("a stale wake-up claimed a second lease: %d live", c.live)
		}
	}
}
