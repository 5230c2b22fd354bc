package coherence

import (
	"fmt"

	"iqolb/internal/cache"
	"iqolb/internal/core"
	"iqolb/internal/engine"
	"iqolb/internal/faults"
	"iqolb/internal/interconnect"
	"iqolb/internal/mem"
	"iqolb/internal/stats"
	"iqolb/internal/trace"
)

// mshr tracks one outstanding miss.
type mshr struct {
	line     mem.LineID
	txKind   mem.TxKind
	txID     uint64
	req      mem.Request
	issuedAt engine.Time

	// opDone marks the original request as already completed (tear-off
	// path); the fill then only installs the line and runs pending ops.
	opDone bool

	// observed is set when the transaction reaches its bus observation
	// (coherence) point. Conflicting transactions snooped before that are
	// ordered ahead of ours and require no squash/invalidation handling.
	observed bool

	// Tear-off spin state: the speculative value for exactly one word.
	hasTear  bool
	tearAddr mem.Addr
	tearVal  uint64

	// invalidated records a conflicting write-intent transaction observed
	// after ours was ordered but before our data arrived; a GETS fill
	// then completes without installing a (stale) copy.
	invalidated bool

	// pending ops to the same line issued while the miss is outstanding.
	pending []mem.Request
}

// duty is a supply obligation routed to this node by the fabric: another
// node's transaction this node must eventually answer.
type duty struct {
	tx      interconnect.Tx
	loan    bool
	arrived engine.Time

	delayed   bool // response deliberately delayed (the paper's Δ)
	tearSent  bool
	inService bool // prompt response already scheduled
	removed   bool // answered, squashed, or rerouted; scheduled events no-op
	timerDead bool // the time-out fired while the line was loaned out
	timerSeq  uint64
}

// lineState is everything one node tracks about one line: the paper's
// mechanism is per line, and so is this record.
type lineState struct {
	data *mem.LineData // the node's copy; nil while it has none
	mshr *mshr         // the one outstanding miss, if any

	// duties is the node's part of the line's implicit queue (§3.2): the
	// requests it must answer, in bus order. Every queued duty is live; a
	// duty marked removed has already left the queue.
	duties []*duty

	// loanedOut marks a line lent to a writer under queue retention (§3.3);
	// the node remains queue head and reinstalls the line on DataReturn.
	// loanWait parks the node's own accesses until then.
	loanedOut bool
	loanWait  []mem.Request
}

// Controller is one node's cache controller: L1/L2 arrays, one lineState
// record per line it has a stake in (data image, MSHR, duty queue, loan),
// the LL/SC link register, and the IQOLB policy hooks.
type Controller struct {
	id     mem.NodeID
	f      *Fabric
	eng    *engine.Engine
	policy *core.Policy
	l1     *cache.Cache
	l2     *cache.Cache

	lines map[mem.LineID]*lineState

	linkValid   bool
	linkAddr    mem.Addr
	linkFragile bool // link set from a tear-off value; dies on real fill

	timerSeq     uint64
	acquireStart map[mem.Addr]engine.Time

	// spin is the watch a sleeping processor keeps on the load it repeats
	// (see Watch); wake is nil while none is armed.
	spin struct {
		line mem.LineID
		kind mem.AccessKind
		tear bool
		wake func() uint64
	}

	st *stats.Node
}

func newController(id mem.NodeID, f *Fabric, geo CacheGeometry, pol *core.Policy, st *stats.Node) *Controller {
	return &Controller{
		id:           id,
		f:            f,
		eng:          f.eng,
		policy:       pol,
		l1:           cache.New(geo.L1),
		l2:           cache.New(geo.L2),
		lines:        make(map[mem.LineID]*lineState),
		acquireStart: make(map[mem.Addr]engine.Time),
		st:           st,
	}
}

// at reads the line's record. A line the node tracks nothing about reads as
// the zero record, by value: the snoop path (every node sees every
// transaction) allocates nothing, and a write to the result reaches no line.
func (c *Controller) at(line mem.LineID) lineState {
	if ls := c.lines[line]; ls != nil {
		return *ls
	}
	return lineState{}
}

// track returns the line's record for writing, creating it on first use.
func (c *Controller) track(line mem.LineID) *lineState {
	ls := c.lines[line]
	if ls == nil {
		ls = new(lineState)
		c.lines[line] = ls
	}
	return ls
}

// Policy exposes the node's policy instance (tests, sweep tool).
func (c *Controller) Policy() *core.Policy { return c.policy }

// L1 exposes the first-level array (stats folding, tests).
func (c *Controller) L1() *cache.Cache { return c.l1 }

// L2 exposes the second-level array.
func (c *Controller) L2() *cache.Cache { return c.l2 }

// State exposes the L2 MOESI state of a line (tests, invariant checks).
func (c *Controller) State(line mem.LineID) mem.State { return c.l2.State(line) }

// PeekWord reads a resident line's word directly (tests).
func (c *Controller) PeekWord(addr mem.Addr) (uint64, bool) {
	d := c.at(addr.Line()).data
	if d == nil {
		return 0, false
	}
	return d[addr.WordIndex()], true
}

func (c *Controller) hasReadableLine(line mem.LineID) bool {
	return c.l2.State(line).CanRead()
}

func (c *Controller) lineData(line mem.LineID) *mem.LineData {
	d := c.at(line).data
	if d == nil {
		panic(fmt.Sprintf("coherence: %s has state %s for line %d but no data",
			c.id, c.l2.State(line), line))
	}
	return d
}

// traceEv records a processor/controller event on the traced line.
func (c *Controller) traceEv(kind trace.Kind, line mem.LineID, note string) {
	c.f.rec.Add(trace.Event{At: c.eng.Now(), Kind: kind, Node: c.id, Line: line, Note: note})
}

// completeAfter delivers a request's result lat cycles from now: an event
// that targets the requester and carries the result.
func (c *Controller) completeAfter(req mem.Request, res mem.Result, lat engine.Time) {
	c.eng.Schedule(c.eng.Now()+lat, req.Done, res.Arg())
}

// complete delivers a request's result now.
func (c *Controller) complete(req mem.Request, res mem.Result) {
	req.Done.Fire(c.eng.Now(), res.Arg())
}

// ---------------------------------------------------------------------------
// Processor-facing request path
// ---------------------------------------------------------------------------

// Watch implements proc.Watcher. Another read of addr is served exactly as
// the last one when it hits in L1 (or reads the tear-off word of the
// line's outstanding miss), returns v, finds the link already as it would
// set it, opens no new acquire attempt, and no trace recorder wants the
// line. The watch then wakes the processor, before anything else changes,
// on:
//   - an invalidation or downgrade of the line (snoop, supply, eviction),
//     which also covers a link reset;
//   - any install at this node, which moves the LRU stamps the skipped
//     hits would have set and may evict the line from L1 or L2;
//   - any data message for the line (a tear-off replaced, a fill), or
//     the line's miss squashed or retired (a plain read answered by a
//     tear-off retires its miss in the event that completed it, after
//     the processor armed its watch);
//   - Degrade, and the end of the run (Fabric.Settle).
func (c *Controller) Watch(kind mem.AccessKind, addr mem.Addr, v uint64, wake func() uint64) (lat engine.Time, tearOff, ok bool) {
	line := addr.Line()
	ls := c.at(line)
	if c.f.rec.Wants(line) || ls.loanedOut {
		return 0, false, false
	}
	if m := ls.mshr; m != nil {
		if !m.hasTear || m.tearAddr != addr || m.tearVal != v {
			return 0, false, false
		}
		tearOff = true
	} else {
		if !c.l2.State(line).CanRead() || !c.l1.Contains(line) || ls.data[addr.WordIndex()] != v {
			return 0, false, false
		}
		if _, open := c.acquireStart[addr]; kind == mem.LoadLinked && c.f.isLockAddr(addr) && !open {
			return 0, false, false
		}
	}
	if kind == mem.LoadLinked && !(c.linkValid && c.linkAddr == addr && c.linkFragile == tearOff) {
		return 0, false, false
	}
	c.spin.line, c.spin.kind, c.spin.tear, c.spin.wake = line, kind, tearOff, wake
	return c.f.timing.L1Hit, tearOff, true
}

// wakeSpin fires the armed watch, if any, and charges the reads the
// sleeping processor skipped exactly as Access would have.
func (c *Controller) wakeSpin() {
	wake := c.spin.wake
	if wake == nil {
		return
	}
	c.spin.wake = nil
	n := wake()
	switch {
	case c.spin.tear:
		c.st.LocalSpins += n
		return
	case c.spin.kind == mem.LoadLinked:
		c.st.LLCount += n
	default:
		c.st.LoadCount += n
	}
	c.l2.TouchN(c.spin.line, n)
	c.l1.TouchN(c.spin.line, n)
	c.st.L1Hits += n
}

// wakeSpinOn fires the watch if it is on line.
func (c *Controller) wakeSpinOn(line mem.LineID) {
	if c.spin.wake != nil && c.spin.line == line {
		c.wakeSpin()
	}
}

// Access is the processor's entry point (proc.Port).
func (c *Controller) Access(req mem.Request) {
	line := req.Addr.Line()
	ls := c.at(line)
	if ls.loanedOut {
		// Our own access to a line we lent out: it returns shortly.
		parked := c.track(line)
		parked.loanWait = append(parked.loanWait, req)
		return
	}
	if m := ls.mshr; m != nil {
		// The line is in flight. Reads of the tear-off word spin locally;
		// everything else waits for the fill.
		if (req.Kind == mem.Load || req.Kind == mem.LoadLinked) && m.hasTear && m.tearAddr == req.Addr {
			c.st.LocalSpins++
			if req.Kind == mem.LoadLinked {
				c.setLink(req.Addr, true)
			}
			c.traceEv(trace.EvSpin, line, "")
			c.completeAfter(req, mem.Result{Value: m.tearVal, TearOff: true}, c.f.timing.L1Hit)
			return
		}
		m.pending = append(m.pending, req)
		return
	}
	c.dispatch(req)
}

func (c *Controller) dispatch(req mem.Request) {
	switch req.Kind {
	case mem.Load, mem.LoadLinked:
		c.accessRead(req)
	case mem.Store:
		c.accessStore(req)
	case mem.StoreCond:
		c.accessSC(req)
	case mem.SwapOp:
		c.accessSwap(req)
	case mem.EnqolbOp:
		c.accessEnqolb(req)
	case mem.DeqolbOp:
		c.accessDeqolb(req)
	default:
		panic(fmt.Sprintf("coherence: unknown access kind %v", req.Kind))
	}
}

// hitLatency touches the hierarchy for a resident line and returns the
// access latency (L1 vs L2), installing the L1 entry on an L1 miss.
func (c *Controller) hitLatency(line mem.LineID) engine.Time {
	c.l2.Touch(line)
	if c.l1.Touch(line) {
		c.st.L1Hits++
		return c.f.timing.L1Hit
	}
	c.st.L1Misses++
	c.st.L2Hits++
	c.l1.Install(line, c.l1PermFor(line))
	return c.f.timing.L2Hit
}

func (c *Controller) l1PermFor(line mem.LineID) mem.State {
	if c.l2.State(line).CanWrite() {
		return mem.Modified
	}
	return mem.Shared
}

// writeHit performs a store-class write on a resident writable line: touch,
// write the word, report the commit, E→M. It returns the hit latency and
// the word's previous value.
func (c *Controller) writeHit(addr mem.Addr, v uint64) (engine.Time, uint64) {
	line := addr.Line()
	lat := c.hitLatency(line)
	d := c.lineData(line)
	old := d[addr.WordIndex()]
	d[addr.WordIndex()] = v
	c.probeCommit(addr, v)
	if c.l2.State(line) == mem.Exclusive {
		c.l2.SetState(line, mem.Modified)
	}
	return lat, old
}

func (c *Controller) setLink(addr mem.Addr, fragile bool) {
	c.linkValid = true
	c.linkAddr = addr
	c.linkFragile = fragile
}

func (c *Controller) resetLinkIfOn(line mem.LineID) {
	if c.linkValid && c.linkAddr.Line() == line {
		c.linkValid = false
		c.linkFragile = false
	}
}

func (c *Controller) noteAcquireStart(addr mem.Addr) {
	if c.f.isLockAddr(addr) {
		if _, ok := c.acquireStart[addr]; !ok {
			c.acquireStart[addr] = c.eng.Now()
			c.f.noteLockAttempt(c.id, addr)
		}
	}
}

// noteAcquired closes the attempt noteAcquireStart opened at a registered
// lock address: the hand-off and acquire-wait statistics.
func (c *Controller) noteAcquired(addr mem.Addr) {
	c.f.recordAcquire(c.id, addr)
	if s, ok := c.acquireStart[addr]; ok {
		c.f.st.AcquireWait.Add(uint64(c.eng.Now() - s))
		delete(c.acquireStart, addr)
	}
}

func (c *Controller) accessRead(req mem.Request) {
	line := req.Addr.Line()
	if req.Kind == mem.LoadLinked {
		c.st.LLCount++
		c.noteAcquireStart(req.Addr)
	} else {
		c.st.LoadCount++
	}
	if c.l2.State(line).CanRead() {
		lat := c.hitLatency(line)
		if req.Kind == mem.LoadLinked {
			c.setLink(req.Addr, false)
			c.traceEv(trace.EvLL, line, "hit")
		}
		c.completeAfter(req, mem.Result{Value: c.lineData(line)[req.Addr.WordIndex()]}, lat)
		return
	}
	c.st.L1Misses++
	c.st.L2Misses++
	tx := mem.TxGETS
	if req.Kind == mem.LoadLinked {
		tx = c.policy.TxForLL()
		c.traceEv(trace.EvLL, line, "miss")
	}
	c.missIssue(req, tx)
}

func (c *Controller) accessStore(req mem.Request) {
	line := req.Addr.Line()
	c.st.StoreCount++
	state := c.l2.State(line)
	switch {
	case state.CanWrite():
		lat, _ := c.writeHit(req.Addr, req.Value)
		c.traceEv(trace.EvStore, line, "")
		c.completeAfter(req, mem.Result{}, lat)
		c.afterStore(req.Addr)
	case state == mem.Shared || state == mem.Owned:
		c.missIssue(req, mem.TxUPGR)
	default:
		c.st.L1Misses++
		c.st.L2Misses++
		c.missIssue(req, mem.TxGETX)
	}
}

func (c *Controller) accessSC(req mem.Request) {
	line := req.Addr.Line()
	if !c.linkValid || c.linkAddr != req.Addr || c.linkFragile {
		c.st.SCFail++
		c.traceEv(trace.EvSCFail, line, "link lost")
		c.completeAfter(req, mem.Result{OK: false}, c.f.timing.L1Hit)
		return
	}
	state := c.l2.State(line)
	switch {
	case state.CanWrite():
		lat, _ := c.writeHit(req.Addr, req.Value)
		c.linkValid = false
		c.completeAfter(req, mem.Result{OK: true}, lat)
		// Policy bookkeeping runs atomically with the write: a gap would
		// let a concurrently scheduled prompt response steal the line
		// between the acquire and the held-table insertion.
		c.afterSCSuccess(req)
	case state == mem.Shared || state == mem.Owned:
		c.missIssue(req, mem.TxUPGR)
	default:
		// Link valid but no copy: conservatively fail (the spin loop
		// will retry its LL).
		c.st.SCFail++
		c.traceEv(trace.EvSCFail, line, "no copy")
		c.linkValid = false
		c.completeAfter(req, mem.Result{OK: false}, c.f.timing.L1Hit)
	}
}

// afterSCSuccess runs the paper's §3.3–3.4 bookkeeping once an SC has
// performed: classify the acquire, extend or flush any delayed response,
// and record lock statistics.
func (c *Controller) afterSCSuccess(req mem.Request) {
	line := req.Addr.Line()
	c.st.SCSuccess++
	c.traceEv(trace.EvSCOk, line, "")
	if c.f.fireFault(faults.PredictorCorrupt, line) {
		// Injected fault: flip the predictor's verdict for this PC before
		// the acquire is classified. Mispredictions cost time-outs, not
		// correctness — the run must still finish with the right state.
		c.policy.CorruptPredictor(req.PC)
	}
	class, evicted, wasEvicted := c.policy.OnSCSuccess(req.PC, req.Addr, c.eng.Now())
	if wasEvicted {
		// Nested speculation overflow: stop delaying for the discarded
		// outer lock.
		c.flushDelayed(evicted.Line, trace.EvDelayEnd, "nested overflow")
	}
	if c.f.isLockAddr(req.Addr) {
		c.st.LockAcquires++
		c.noteAcquired(req.Addr)
	}
	if class == core.ClassLock {
		c.traceEv(trace.EvAcquire, line, "predicted lock")
		// The SC-window delay (if any) becomes a lock-hold delay: re-arm
		// its time-out with the larger budget and give the waiter a
		// tear-off to spin on.
		if d := c.delayedDuty(line); d != nil {
			c.armTimer(line, d, c.policy.Config().LockTimeout)
			c.maybeTearOff(line, d)
		}
	} else {
		c.flushDelayed(line, trace.EvDelayEnd, "SC complete")
	}
}

func (c *Controller) accessSwap(req mem.Request) {
	line := req.Addr.Line()
	c.st.SwapCount++
	state := c.l2.State(line)
	switch {
	case state.CanWrite():
		lat, old := c.writeHit(req.Addr, req.Value)
		c.completeAfter(req, mem.Result{Value: old}, lat)
		c.afterStore(req.Addr)
	case state == mem.Shared || state == mem.Owned:
		c.missIssue(req, mem.TxUPGR)
	default:
		c.missIssue(req, mem.TxGETX)
	}
}

func (c *Controller) accessEnqolb(req mem.Request) {
	c.st.QOLBEnqueues++
	c.noteAcquireStart(req.Addr)
	c.missIssue(req, mem.TxQOLB)
}

func (c *Controller) accessDeqolb(req mem.Request) {
	// The release itself is local (the holder owns the queue head); the
	// hand-off transfer is charged inside the grant path.
	addr := req.Addr
	c.completeAfter(req, mem.Result{}, c.f.timing.L1Hit)
	c.st.LockReleases++
	c.f.recordRelease(c.id, addr)
	c.traceEv(trace.EvRelease, addr.Line(), "deqolb")
	c.f.qolb.Release(c.id, addr)
}

// qolbGranted completes the node's pending EnQOLB once the lock (and its
// line) has arrived.
func (c *Controller) qolbGranted(addr mem.Addr) {
	line := addr.Line()
	m := c.at(line).mshr
	if m == nil || m.txKind != mem.TxQOLB {
		panic(fmt.Sprintf("coherence: %s QOLB grant without pending enqueue", c.id))
	}
	c.retire(m)
	c.st.LockAcquires++
	if c.f.isLockAddr(addr) {
		c.noteAcquired(addr)
	}
	c.traceEv(trace.EvAcquire, line, "qolb grant")
	val := c.lineData(line)[addr.WordIndex()]
	c.complete(m.req, mem.Result{Value: val, OK: true})
	for _, p := range m.pending {
		c.Access(p)
	}
}

// qolbGrantedLocal handles a grant when the line never left this cache.
func (c *Controller) qolbGrantedLocal(addr mem.Addr) {
	line := addr.Line()
	if !c.l2.State(line).CanWrite() {
		// Promote silently: the fabric already invalidated other copies.
		c.l2.SetState(line, mem.Modified)
		c.l1.Invalidate(line)
	}
	c.eng.After(c.f.timing.L1Hit, func(engine.Time) { c.qolbGranted(addr) })
}

// afterStore runs release detection for every completed store.
func (c *Controller) afterStore(addr mem.Addr) {
	if e, ok := c.policy.OnStore(addr); ok {
		c.st.LockReleases++
		if e.Delaying {
			c.st.PredictorHits++ // predicted lock, release observed: right
		} else {
			c.st.PredictorMisses++ // was a lock but ran as Fetch&Phi
		}
		c.f.recordRelease(c.id, addr)
		c.traceEv(trace.EvRelease, e.Line, "store to held lock")
		c.flushDelayed(e.Line, trace.EvDelayEnd, "release")
		// Generalized IQOLB: the tenure's protected-data lines are
		// released together with the lock.
		for _, fp := range e.Footprint {
			c.flushDelayed(fp, trace.EvDelayEnd, "release (footprint)")
		}
	} else if c.f.isLockAddr(addr) {
		// Modes without a held-locks table still record the release for
		// the hand-off statistics.
		c.st.LockReleases++
		c.f.recordRelease(c.id, addr)
		c.flushDelayed(addr.Line(), trace.EvDelayEnd, "lock-addr store")
	}
}

// missIssue allocates an MSHR and puts the transaction on the bus.
func (c *Controller) missIssue(req mem.Request, tx mem.TxKind) {
	line := req.Addr.Line()
	m := &mshr{line: line, txKind: tx, req: req, issuedAt: c.eng.Now()}
	c.track(line).mshr = m
	m.txID = c.issue(tx, req.Addr)
}

// issue counts, traces and probes one transaction and requests the address
// bus for it, returning the bus's transaction ID.
func (c *Controller) issue(tx mem.TxKind, addr mem.Addr) uint64 {
	line := addr.Line()
	c.st.TxIssued[tx]++
	c.f.rec.Add(trace.Event{At: c.eng.Now(), Kind: trace.EvTxIssue, Node: c.id, Line: line, Tx: tx})
	if tx == mem.TxLPRFO {
		c.f.probeLPRFOIssue(c.id, line)
	}
	return c.f.bus.Request(tx, addr, c.id)
}

// retire frees an MSHR and charges its miss latency.
func (c *Controller) retire(m *mshr) {
	c.wakeSpinOn(m.line)
	c.track(m.line).mshr = nil
	c.f.st.MissLatency.Add(uint64(c.eng.Now() - m.issuedAt))
}

// ---------------------------------------------------------------------------
// Bus-facing path: snoops, duties, grants
// ---------------------------------------------------------------------------

// snoop processes a transaction by another node at its observation instant.
func (c *Controller) snoop(tx interconnect.Tx) {
	line := tx.Line
	switch tx.Kind {
	case mem.TxGETX, mem.TxUPGR:
		state := c.l2.State(line)
		if state == mem.Shared || (tx.Kind == mem.TxUPGR && state == mem.Owned) {
			c.invalidateLocal(line)
			// An Owned chain head losing its copy to an upgrade must pass
			// its queued duties along; deferred one event so the fabric's
			// holder register reflects the upgrader first. They stay if by
			// then the line is back, or on its way.
			if len(c.at(line).duties) > 0 {
				c.eng.After(0, func(engine.Time) {
					if !c.answersFor(line) {
						c.handOff(line)
					}
				})
			}
		} else if tx.Kind == mem.TxUPGR && state.IsOwner() {
			panic(fmt.Sprintf("coherence: %s holds %s while %s upgrades line %d",
				c.id, state, tx.Requester, line))
		}
		if m := c.at(line).mshr; m != nil && m.observed {
			if m.txKind == mem.TxLPRFO && !c.policy.Config().QueueRetention &&
				c.f.holderOf(line) != c.id {
				// Queue breakdown — but only for requests not yet
				// serviced (a response already in flight to us means our
				// request was ordered before this write).
				c.squash(m)
			} else if m.txKind == mem.TxGETS {
				m.invalidated = true
			}
		}
		if !c.policy.Config().QueueRetention {
			c.dropQueuedLPRFOs(line)
		}
	case mem.TxLPRFO:
		if c.l2.State(line) == mem.Shared {
			c.invalidateLocal(line)
		}
		if m := c.at(line).mshr; m != nil && m.observed && m.txKind == mem.TxGETS {
			m.invalidated = true
		}
	}
}

// squash abandons a queued LPRFO after a queue breakdown (retention off)
// and re-issues it; the queue rebuilds in new bus order (§3.2).
func (c *Controller) squash(m *mshr) {
	c.wakeSpinOn(m.line)
	c.f.probeSquash(c.id, m.line)
	c.st.QueueBreakdowns++
	c.traceEv(trace.EvSquash, m.line, "")
	m.hasTear = false
	m.observed = false
	// Duties routed here (the chain below us) dissolve: each of their
	// requesters squashes itself on the same broadcast and frees its own
	// bus slot when it re-requests.
	c.dropQueuedLPRFOs(m.line)
	c.f.bus.Complete() // our own abandoned slot
	m.txID = c.issue(mem.TxLPRFO, m.req.Addr)
}

// answersFor reports whether duties for the line belong at this node: it
// has the data, has lent it out and will get it back, or is owner-elect
// with the line on its way.
func (c *Controller) answersFor(line mem.LineID) bool {
	ls := c.at(line)
	return c.l2.State(line).CanRead() || ls.loanedOut ||
		ls.mshr != nil && (ls.mshr.txKind.WantsOwnership() || ls.mshr.txKind == mem.TxQOLB)
}

// handOff passes every duty still queued for the line to its current
// holder: the line has left this node, or will never reach it. The fabric's
// holder register already names the new home.
func (c *Controller) handOff(line mem.LineID) {
	ls := c.track(line)
	rest := ls.duties
	ls.duties = nil
	for _, d := range rest {
		if d.removed {
			continue
		}
		d.removed = true
		c.f.reroute(d.tx, d.loan)
	}
}

// dropQueuedLPRFOs removes LPRFO duties during a queue breakdown. Their
// requesters reissue (and handle their own bus accounting) on the same
// broadcast.
func (c *Controller) dropQueuedLPRFOs(line mem.LineID) {
	queue := c.at(line).duties
	if len(queue) == 0 {
		return
	}
	var keep []*duty
	for _, d := range queue {
		if d.tx.Kind == mem.TxLPRFO && !d.removed {
			d.removed = true
			continue
		}
		keep = append(keep, d)
	}
	c.track(line).duties = keep
}

// invalidateLocal drops the node's copy: caches, data, link, and any lock
// speculation on the line.
func (c *Controller) invalidateLocal(line mem.LineID) {
	c.wakeSpinOn(line)
	c.resetLinkIfOn(line)
	c.l1.Invalidate(line)
	c.l2.Invalidate(line)
	c.track(line).data = nil
}

// willRetain reports whether a plain write request for the line should be
// serviced as a loan (queue retention): this node is delaying responses
// for the line and the policy retains queues.
func (c *Controller) willRetain(line mem.LineID) bool {
	if !c.policy.Config().QueueRetention {
		return false
	}
	if c.at(line).loanedOut {
		return true // already mid-loan; keep queue semantics
	}
	return c.delayedDuty(line) != nil
}

func (c *Controller) delayedDuty(line mem.LineID) *duty {
	for _, d := range c.at(line).duties {
		if d.delayed && !d.removed {
			return d
		}
	}
	return nil
}

// ownTxObserved marks the node's outstanding transaction for the line as
// globally ordered.
func (c *Controller) ownTxObserved(line mem.LineID) {
	if m := c.at(line).mshr; m != nil {
		m.observed = true
	}
}

// addDuty receives a supply obligation from the fabric.
func (c *Controller) addDuty(tx interconnect.Tx, loan bool) {
	if tx.Requester == c.id {
		panic(fmt.Sprintf("coherence: %s received duty for its own request", c.id))
	}
	line := tx.Line
	if !c.answersFor(line) {
		// We no longer hold the line (raced with a hand-off): pass the
		// obligation to the current holder.
		c.f.reroute(tx, loan)
		return
	}
	ls := c.track(line)
	ls.duties = append(ls.duties, &duty{tx: tx, loan: loan, arrived: c.eng.Now()})
	c.processDuties(line)
}

// upgradeGranted completes a pending UPGR at its observation instant.
func (c *Controller) upgradeGranted(tx interconnect.Tx) {
	line := tx.Line
	m := c.takeMshr(line, tx.Kind)
	c.l2.SetState(line, mem.Modified)
	c.l1.Invalidate(line) // refresh permission on next touch
	c.probeInstall(line, mem.Modified)
	c.completeWriteOp(m, c.lineData(line))
	c.runPending(m)
	c.processDuties(line)
}

// completeWriteOp performs an MSHR's write-class operation on freshly
// writable data and completes the processor request.
func (c *Controller) completeWriteOp(m *mshr, d *mem.LineData) {
	req := m.req
	idx := req.Addr.WordIndex()
	switch req.Kind {
	case mem.Store:
		d[idx] = req.Value
		c.probeCommit(req.Addr, req.Value)
		c.traceEv(trace.EvStore, m.line, "")
		c.complete(req, mem.Result{})
		c.afterStore(req.Addr)
	case mem.StoreCond:
		if c.linkValid && c.linkAddr == req.Addr && !c.linkFragile {
			d[idx] = req.Value
			c.probeCommit(req.Addr, req.Value)
			c.linkValid = false
			c.complete(req, mem.Result{OK: true})
			c.afterSCSuccess(req)
		} else {
			c.st.SCFail++
			c.traceEv(trace.EvSCFail, m.line, "lost race")
			c.linkValid = false
			c.linkFragile = false
			c.complete(req, mem.Result{OK: false})
		}
	case mem.SwapOp:
		old := d[idx]
		d[idx] = req.Value
		c.probeCommit(req.Addr, req.Value)
		c.complete(req, mem.Result{Value: old})
		c.afterStore(req.Addr)
	case mem.Load, mem.LoadLinked:
		if req.Kind == mem.LoadLinked {
			c.setLink(req.Addr, false)
		}
		c.complete(req, mem.Result{Value: d[idx]})
	default:
		panic(fmt.Sprintf("coherence: unexpected op %v at fill", req.Kind))
	}
}

// ---------------------------------------------------------------------------
// Data arrival
// ---------------------------------------------------------------------------

func (c *Controller) onData(msg interconnect.Msg) {
	line := msg.Line
	c.wakeSpinOn(line)
	switch msg.Kind {
	case mem.DataShared:
		m := c.takeMshr(line, msg.Kind)
		if m.invalidated {
			// A write was ordered after our read but before our data
			// arrived: use the value (our read is ordered first) but do
			// not install a stale copy, and do not set the link.
			c.completeReadNoInstall(m, msg.Data)
		} else {
			c.install(line, mem.Shared, msg.Data)
			c.completeFill(m)
		}
		if msg.TxID != 0 {
			c.f.bus.Complete()
		}
		c.runPending(m)
	case mem.DataExclusive:
		if msg.Loan {
			c.onLoanData(msg)
			return
		}
		if m := c.at(line).mshr; m != nil && m.txKind == mem.TxQOLB {
			c.install(line, mem.Modified, msg.Data)
			c.qolbGranted(m.req.Addr)
			c.processDuties(line) // duties queued while the grant was in flight
			return
		}
		m := c.takeMshr(line, msg.Kind)
		state := mem.Exclusive
		if msg.Dirty {
			state = mem.Modified
		}
		c.install(line, state, msg.Data)
		if c.linkFragile && c.linkAddr.Line() == line {
			// The tear-off value this link was based on is superseded.
			c.linkValid = false
			c.linkFragile = false
		}
		c.completeFill(m)
		if msg.TxID != 0 {
			c.f.bus.Complete()
		}
		c.runPending(m)
		c.processDuties(line)
	case mem.DataTearOff:
		m := c.at(line).mshr
		if m == nil {
			return // raced with a resolution; harmless
		}
		c.st.TearOffsIn++
		idx := m.req.Addr.WordIndex()
		m.hasTear = true
		m.tearAddr = m.req.Addr
		m.tearVal = msg.Data[idx]
		if !m.opDone && (m.req.Kind == mem.LoadLinked || m.req.Kind == mem.Load) {
			m.opDone = true
			if m.req.Kind == mem.LoadLinked {
				c.setLink(m.req.Addr, true)
			}
			c.complete(m.req, mem.Result{Value: m.tearVal, TearOff: true})
		}
		if m.txKind == mem.TxGETS {
			// A plain read answered speculatively is fully resolved: the
			// supplier completed our duty; no line will arrive.
			c.retire(m)
			c.runPending(m)
		}
	case mem.DataReturn:
		ls := c.track(line)
		if !ls.loanedOut {
			panic(fmt.Sprintf("coherence: %s got DataReturn without loan", c.id))
		}
		ls.loanedOut = false
		c.st.RetentionTrips++
		c.install(line, mem.Modified, msg.Data)
		waiters := ls.loanWait
		ls.loanWait = nil
		for _, w := range waiters {
			c.Access(w)
		}
		c.processDuties(line)
	default:
		panic(fmt.Sprintf("coherence: %s received %s", c.id, msg.Kind))
	}
}

// takeMshr retires the MSHR that the arriving response (a data message or
// an upgrade grant, named by what) answers.
func (c *Controller) takeMshr(line mem.LineID, what fmt.Stringer) *mshr {
	m := c.at(line).mshr
	if m == nil {
		panic(fmt.Sprintf("coherence: %s got %s for line %d without MSHR", c.id, what, line))
	}
	c.retire(m)
	return m
}

// onLoanData handles a retention-mode exclusive response: perform the one
// pending write on the borrowed line and return it immediately (§3.3's
// "transfer ownership back once the write completes").
func (c *Controller) onLoanData(msg interconnect.Msg) {
	line := msg.Line
	m := c.takeMshr(line, msg.Kind)
	data := msg.Data
	c.completeWriteOp(m, &data)
	if msg.TxID != 0 {
		c.f.bus.Complete()
	}
	c.st.RetentionTrips++
	c.f.send(interconnect.Msg{
		Kind: mem.DataReturn, Line: line, Data: data, Dirty: true,
		From: c.id, To: msg.ReturnTo,
	})
	// Duties queued here anticipated this node becoming the holder; the
	// loan means it never will. Pass them to the line's real home (the
	// holder register already points back at the loan origin).
	c.handOff(line)
	c.runPending(m) // they will miss again: the line has left
}

func (c *Controller) completeReadNoInstall(m *mshr, data mem.LineData) {
	if m.opDone {
		return
	}
	m.opDone = true
	c.complete(m.req, mem.Result{Value: data[m.req.Addr.WordIndex()]})
}

// completeFill finishes the MSHR's original operation after installation.
func (c *Controller) completeFill(m *mshr) {
	if m.opDone {
		return
	}
	m.opDone = true
	line := m.line
	req := m.req
	switch req.Kind {
	case mem.Load:
		c.complete(req, mem.Result{Value: c.lineData(line)[req.Addr.WordIndex()]})
	case mem.LoadLinked:
		c.setLink(req.Addr, false)
		c.complete(req, mem.Result{Value: c.lineData(line)[req.Addr.WordIndex()]})
	case mem.Store, mem.StoreCond, mem.SwapOp:
		if !c.l2.State(line).CanWrite() {
			panic(fmt.Sprintf("coherence: %s write fill without write permission (%s)",
				c.id, c.l2.State(line)))
		}
		c.l2.SetState(line, mem.Modified)
		c.completeWriteOp(m, c.lineData(line))
	default:
		panic(fmt.Sprintf("coherence: fill for op %v", req.Kind))
	}
}

func (c *Controller) runPending(m *mshr) {
	pend := m.pending
	m.pending = nil
	for _, p := range pend {
		c.Access(p)
	}
}

// install places a line into the hierarchy, running the eviction path for
// any victim first.
func (c *Controller) install(line mem.LineID, state mem.State, data mem.LineData) {
	c.wakeSpin()
	if c.l2.State(line) == mem.Invalid {
		if victim, vstate, full := c.l2.Victim(line); full {
			c.evict(victim, vstate)
		}
	}
	c.l2.Install(line, state)
	d := data
	c.track(line).data = &d
	c.l1.Install(line, c.l1PermFor(line))
	c.probeInstall(line, state)
}

// evict removes a victim line, honouring the paper's rule that evicting a
// line with queued requests transfers ownership (and data) to the next
// requestor — an eviction is treated as a time-out.
func (c *Controller) evict(victim mem.LineID, vstate mem.State) {
	if len(c.at(victim).duties) > 0 {
		c.st.DelayEvictions++
		c.forwardOwnership(victim, trace.EvTimeout, "eviction")
		if c.l2.State(victim) != mem.Invalid {
			// Only reads were queued: evict normally, rerouting them to
			// the line's new home afterwards.
			c.finishEvict(victim, c.l2.State(victim))
		}
		return
	}
	c.finishEvict(victim, vstate)
}

func (c *Controller) finishEvict(victim mem.LineID, vstate mem.State) {
	if vstate.Dirty() {
		c.writeback(victim)
	} else {
		c.f.setHolderIfNode(victim, c.id, mem.MemoryNode)
		c.f.setOwnerIfHeldBy(victim, c.id, mem.MemoryNode)
	}
	c.giveUpLine(victim)
}

func (c *Controller) liveDuties(line mem.LineID) []*duty {
	var out []*duty
	for _, d := range c.at(line).duties {
		if !d.removed {
			out = append(out, d)
		}
	}
	return out
}

func (c *Controller) writeback(line mem.LineID) {
	c.issue(mem.TxWB, line.Base())
	c.f.memory.expectWriteback(line)
	c.f.send(interconnect.Msg{
		Kind: mem.DataWriteback, Line: line, Data: *c.lineData(line), Dirty: true,
		From: c.id, To: mem.MemoryNode,
	})
}

// ---------------------------------------------------------------------------
// Duty processing: the heart of the delayed-response and IQOLB mechanisms
// ---------------------------------------------------------------------------

// delaying reports whether the node is entitled to delay LPRFO responses
// for the line: it is inside an LL→SC window on it, or it holds a
// predicted lock on it. The second result is the lock-hold case. A
// degraded fabric never delays — that is what plain-RFO fallback means.
func (c *Controller) delaying(line mem.LineID) (bool, bool) {
	if c.f.degraded {
		return false, false
	}
	holdingLock := c.policy.HoldingLockOn(line)
	inWindow := c.linkValid && !c.linkFragile && c.linkAddr.Line() == line
	return inWindow || holdingLock, holdingLock
}

// processDuties walks the line's queued duties in bus order and services
// what it can. The pass stops as soon as a response that moves the line
// (an ownership transfer or a loan) has been scheduled: later duties must
// stay ordered behind it and are rerouted to the new holder (or resumed on
// the loan's return). Delayed duties and parked reads do not move the line
// and so do not block the walk.
func (c *Controller) processDuties(line mem.LineID) {
	if !c.l2.State(line).CanRead() {
		return // data not here yet (owner-elect) or loaned out
	}
	for _, d := range c.liveDuties(line) {
		if d.delayed {
			if c.f.lineStuck(line) {
				continue // injected StuckDelay: nothing ends this delay
			}
			shouldDelay, _ := c.delaying(line)
			if !shouldDelay {
				// The delay's basis vanished without a flush (the SC
				// failed, or the lock speculation died during a loan):
				// forward now.
				c.st.DelaysReleased++
				c.forwardOwnership(line, trace.EvDelayEnd, "delay basis gone")
				return
			}
			if d.timerDead {
				// The time-out fired while the line was loaned out;
				// re-arm it now that the line is back.
				d.timerDead = false
				_, holdingLock := c.delaying(line)
				c.armTimer(line, d, c.policy.DelayBudget(holdingLock))
			}
			continue
		}
		if d.inService {
			break // the line is about to leave (or be loaned)
		}
		d := d
		switch d.tx.Kind {
		case mem.TxGETS:
			c.serviceGETS(line, d)
		case mem.TxGETX:
			d.inService = true
			c.eng.After(c.policy.Config().RFOServiceDelay, func(engine.Time) {
				c.serviceGETX(line, d)
			})
			return
		case mem.TxLPRFO:
			shouldDelay, holdingLock := c.delaying(line)
			if shouldDelay && c.policy.Config().Mode.UsesLPRFO() {
				c.startDelay(line, d, holdingLock)
			} else {
				d.inService = true
				c.eng.After(c.policy.Config().RFOServiceDelay, func(engine.Time) {
					c.serviceLPRFOPrompt(line, d)
				})
				return
			}
		default:
			panic(fmt.Sprintf("coherence: duty with kind %v", d.tx.Kind))
		}
	}
}

func (c *Controller) startDelay(line mem.LineID, d *duty, holdingLock bool) {
	d.delayed = true
	c.st.DelaysStarted++
	c.f.rec.Add(trace.Event{At: c.eng.Now(), Kind: trace.EvDelayStart, Node: c.id,
		Peer: d.tx.Requester, Line: line})
	c.f.probeDelayStart(c.id, d.tx.Requester, line, holdingLock)
	c.armTimer(line, d, c.policy.DelayBudget(holdingLock))
	if holdingLock {
		c.maybeTearOff(line, d)
	}
}

// serviceGETS answers a read request: a tear-off while delaying, otherwise
// a shared copy with the usual MOESI downgrade.
func (c *Controller) serviceGETS(line mem.LineID, d *duty) {
	shouldDelay, _ := c.delaying(line)
	if shouldDelay && c.policy.Config().Mode.UsesLPRFO() {
		// A read arriving mid-delay is answered with an uncached copy of
		// the current value: reads must not be starvable, and a durable
		// Shared copy would outlive the queued ownership transfer. (This
		// holds even when Config.TearOff — tear-offs to queued lock
		// waiters — is ablated away.)
		c.sendTearOff(line, d.tx.Requester)
		c.removeDuty(line, d)
		if d.tx.ID != 0 {
			c.f.bus.Complete()
		}
		return
	}
	c.wakeSpinOn(line)
	state := c.l2.State(line)
	c.f.send(interconnect.Msg{
		Kind: mem.DataShared, Line: line, Data: *c.lineData(line), Dirty: state.Dirty(),
		From: c.id, To: d.tx.Requester, TxID: d.tx.ID,
	})
	switch state {
	case mem.Modified:
		c.l2.SetState(line, mem.Owned)
		c.l1.Invalidate(line)
	case mem.Exclusive:
		c.l2.SetState(line, mem.Shared)
		c.l1.Invalidate(line)
		c.f.setHolderIfNode(line, c.id, mem.MemoryNode)
		c.f.setOwnerIfHeldBy(line, c.id, mem.MemoryNode)
	}
	c.removeDuty(line, d)
}

// serviceGETX answers a plain write request promptly: a loan under queue
// retention, otherwise a full ownership transfer.
func (c *Controller) serviceGETX(line mem.LineID, d *duty) {
	if d.removed || !c.l2.State(line).CanRead() {
		return
	}
	if d.loan {
		c.loanOut(line, d)
		return
	}
	c.transferOwnership(line, d)
}

func (c *Controller) serviceLPRFOPrompt(line mem.LineID, d *duty) {
	if d.removed || !c.l2.State(line).CanRead() {
		return
	}
	// Re-check: a spin loop may have re-armed the link (or an SC may have
	// registered a lock) between scheduling and service.
	if shouldDelay, holdingLock := c.delaying(line); shouldDelay && c.policy.Config().Mode.UsesLPRFO() {
		d.inService = false
		c.startDelay(line, d, holdingLock)
		return
	}
	c.transferOwnership(line, d)
}

// loanOut lends the line to a writer and expects it straight back.
func (c *Controller) loanOut(line mem.LineID, d *duty) {
	state := c.l2.State(line)
	c.f.send(interconnect.Msg{
		Kind: mem.DataExclusive, Line: line, Data: *c.lineData(line), Dirty: state.Dirty(),
		From: c.id, To: d.tx.Requester, TxID: d.tx.ID,
		Loan: true, ReturnTo: c.id,
	})
	c.track(line).loanedOut = true
	c.invalidateLocal(line)
	c.removeDuty(line, d)
}

// transferOwnership sends the line exclusively to the duty's requester and
// gives it up locally.
func (c *Controller) transferOwnership(line mem.LineID, d *duty) {
	state := c.l2.State(line)
	c.f.send(interconnect.Msg{
		Kind: mem.DataExclusive, Line: line, Data: *c.lineData(line), Dirty: state.Dirty(),
		From: c.id, To: d.tx.Requester, TxID: d.tx.ID,
	})
	c.removeDuty(line, d)
	c.giveUpLine(line)
}

// giveUpLine invalidates locally and reroutes any remaining duties to the
// new holder (whose identity the fabric recorded when the line was sent, or
// when an eviction returned it to memory).
func (c *Controller) giveUpLine(line mem.LineID) {
	c.invalidateLocal(line)
	c.handOff(line)
}

// forwardOwnership hands the line to the first queued ownership-wanting
// duty: the flush path shared by SC completion, lock release, time-out,
// and eviction.
func (c *Controller) forwardOwnership(line mem.LineID, ev trace.Kind, note string) {
	var targets []*duty
	for _, d := range c.liveDuties(line) {
		if d.inService {
			continue
		}
		if d.tx.Kind == mem.TxLPRFO || d.tx.Kind == mem.TxGETX {
			targets = append(targets, d)
			if len(targets) == 2 {
				break
			}
		}
	}
	var target *duty
	if len(targets) > 0 {
		target = targets[0]
	}
	if len(targets) > 1 && c.f.fireFault(faults.GrantReorder, line) {
		// Injected fault: the grant jumps the bus-order queue. The
		// hand-off-order monitor must flag the out-of-order send.
		target = targets[1]
	}
	if target == nil {
		// Only reads are queued (or nothing). The line is leaving (this
		// is the eviction path); they will be rerouted by the caller once
		// the fabric bookkeeping reflects the new holder.
		return
	}
	c.f.rec.Add(trace.Event{At: c.eng.Now(), Kind: ev, Node: c.id, Peer: target.tx.Requester,
		Line: line, Note: note})
	if target.delayed {
		reason := DelayFlushed
		if ev == trace.EvTimeout {
			reason = DelayTimedOut
		}
		c.f.probeDelayEnd(c.id, target.tx.Requester, line, reason)
	}
	c.transferOwnership(line, target)
}

// flushDelayed ends a delayed response early (SC completed for Fetch&Phi,
// or the lock was released) by forwarding the line; with nothing delayed it
// re-walks the queue so reads parked behind the delay get serviced.
func (c *Controller) flushDelayed(line mem.LineID, ev trace.Kind, note string) {
	if c.f.lineStuck(line) {
		return // injected StuckDelay: the delay never releases
	}
	if !c.l2.State(line).CanRead() {
		return // loaned out or already gone; duties travel with the line
	}
	if d := c.delayedDuty(line); d != nil {
		if c.f.fireFault(faults.FlushDropped, line) {
			return // the flush is lost; the armed time-out is the backstop
		}
		c.st.DelaysReleased++
		c.forwardOwnership(line, ev, note)
		return
	}
	c.processDuties(line)
}

// armTimer (re)schedules the delay's time-out. StuckDelay injection
// rolls here — once per arming, the natural start of a delay episode —
// and wedges the whole line: neither this timer nor any later flush or
// re-arm will end the delay (until degradation clears the mark).
func (c *Controller) armTimer(line mem.LineID, d *duty, budget engine.Time) {
	if c.f.lineStuck(line) {
		return // injected StuckDelay: the time-out safety net is dead
	}
	if c.f.fireFault(faults.StuckDelay, line) {
		c.f.markStuck(line)
		return
	}
	c.timerSeq++
	seq := c.timerSeq
	d.timerSeq = seq
	c.eng.After(budget, func(engine.Time) {
		if d.timerSeq != seq || d.removed || !d.delayed {
			return
		}
		if !c.l2.State(line).CanRead() {
			// Loaned out: flag the duty so the return path re-arms.
			d.timerDead = true
			return
		}
		c.st.DelayTimeouts++
		if c.policy.HoldingLockOn(line) {
			c.st.PredictorMisses++ // predicted lock, but no release came
		}
		c.policy.OnDelayTimeout(line)
		c.forwardOwnership(line, trace.EvTimeout, "delay budget exhausted")
	})
}

// maybeTearOff sends the waiter a tear-off copy to spin on.
func (c *Controller) maybeTearOff(line mem.LineID, d *duty) {
	if !c.policy.Config().TearOff || d.tearSent {
		return
	}
	d.tearSent = true
	c.sendTearOff(line, d.tx.Requester)
}

func (c *Controller) sendTearOff(line mem.LineID, to mem.NodeID) {
	c.st.TearOffsOut++
	c.f.probeTearOff(c.id, to, line)
	kind := mem.DataTearOff
	if c.f.fireFault(faults.TearOffOwnership, line) {
		// Injected fault: the tear-off arrives as an ownership transfer
		// while this node keeps its writable copy.
		kind = mem.DataExclusive
	}
	c.f.send(interconnect.Msg{
		Kind: kind, Line: line, Data: *c.lineData(line),
		From: c.id, To: to,
	})
}

func (c *Controller) removeDuty(line mem.LineID, d *duty) {
	d.removed = true
	ls := c.track(line)
	for i, q := range ls.duties {
		if q == d {
			ls.duties = append(ls.duties[:i], ls.duties[i+1:]...)
			break
		}
	}
}
