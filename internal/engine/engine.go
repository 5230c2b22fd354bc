// Package engine provides the deterministic discrete-event core that drives
// the multiprocessor simulation.
//
// All simulator components (processors, caches, buses, memory controllers)
// schedule work as events on a single Engine. Events fire in nondecreasing
// time order; events scheduled for the same cycle fire in the order they
// were scheduled (FIFO by a monotonically increasing sequence number), which
// makes every simulation bit-for-bit reproducible.
//
// An event is data: a time, a sequence number, a target Handler and a
// small Arg. Hot components bind their handlers once, when they are built,
// and pass per-event facts in the Arg, so scheduling and dispatching an
// event allocates nothing. Func adapts a plain callback to the same path
// for tests and cold sites.
//
// A component whose events repeat a fixed pattern with no effect anyone
// can see (a processor spinning on a cached lock) parks a Sleep instead:
// its slots keep their exact place in the dispatch order, and consume
// sequence numbers as the events would, but fire nothing until it is woken.
package engine

import "fmt"

// Time is the simulated clock, measured in processor cycles.
type Time uint64

// Arg is the payload an event carries to its handler: two words whose
// meaning the handler defines (a memory completion packs its result here).
type Arg struct{ A, B uint64 }

// Handler is the target of an event.
type Handler interface {
	Fire(now Time, arg Arg)
}

// Func adapts a callback to Handler. Converting a Func to a Handler does
// not allocate, so a Func bound once (a method value stored at
// construction) schedules for free; a closure literal allocates where it is
// written.
type Func func(now Time)

// Fire calls f; the Arg is unused.
func (f Func) Fire(now Time, _ Arg) { f(now) }

type item struct {
	at  Time
	seq uint64
	h   Handler
	arg Arg
}

// before is the dispatch order: time, then scheduling order. Sequence
// numbers are unique, so this is a total order and any correct heap
// dispatches the same sequence.
func before(a, b *item) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Sleep is a parked chain of events that alternate between two phases:
// a phase-p slot is followed by a phase-(1-p) slot delay[p] cycles later.
// While it sleeps, the engine passes each slot at the (time, seq) position
// the event would have had, numbering the next one exactly as Schedule
// would, and fires nothing. After Wake, the next slot fires the handler
// for real, with the slot's phase in Arg.A, so the owner resumes at the
// position it would have reached had it never slept.
//
// The owner keeps the Sleep (typically embedded, so parking allocates
// nothing) and may park it again once its handler has fired.
type Sleep struct {
	at     Time
	seq    uint64
	delay  [2]Time
	phase  uint64
	passed [2]uint64
	woken  bool
	h      Handler
}

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is not ready to use; call New.
type Engine struct {
	now       Time
	seq       uint64
	queue     []item // binary min-heap by before
	fired     uint64
	halted    bool
	afterStep []func(Time)

	// Parked sleeps, a ring ordered by (at, seq): a passed slot is re-keyed
	// with the newest seq, so it only ever moves toward the tail. nWoken
	// and nUneven count the woken ones and those whose delays are not
	// both one cycle.
	sleeps            []*Sleep
	sleepHead, nSlept int
	nWoken, nUneven   int
}

// New returns an empty engine with the clock at cycle zero.
func New() *Engine {
	return &Engine{queue: make([]item, 0, 1024)}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far. The slots a
// Sleep passes without firing are not counted.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting: queued events and parked
// sleeps, each of which holds one slot.
func (e *Engine) Pending() int { return len(e.queue) + e.nSlept }

// Observed reports whether an after-step observer is installed. Such an
// observer sees every event, so a component must not park a Sleep while
// one is.
func (e *Engine) Observed() bool { return len(e.afterStep) > 0 }

// Schedule arranges for h.Fire(at, arg) at absolute time at. Scheduling
// into the past panics: it would silently corrupt causality and always
// indicates a bug in a component's latency arithmetic.
func (e *Engine) Schedule(at Time, h Handler, arg Arg) {
	if at < e.now {
		panic(fmt.Sprintf("engine: event scheduled at %d, before now %d", at, e.now))
	}
	e.seq++
	e.push(item{at: at, seq: e.seq, h: h, arg: arg})
}

// At schedules fn to fire at absolute time at.
func (e *Engine) At(at Time, fn Func) { e.Schedule(at, fn, Arg{}) }

// After schedules fn to fire delay cycles from now.
func (e *Engine) After(delay Time, fn Func) { e.Schedule(e.now+delay, fn, Arg{}) }

// push appends it and sifts it up to its place.
func (e *Engine) push(it item) {
	e.queue = append(e.queue, it)
	q := e.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !before(&it, &q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = it
}

// pop removes and returns the earliest item. The vacated slot is zeroed so
// the queue's spare capacity holds no handler alive.
func (e *Engine) pop() item {
	q := e.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = item{}
	q = q[:n]
	e.queue = q
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(&q[r], &q[c]) {
			c = r
		}
		if !before(&q[c], &last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = last
	return top
}

// Park puts s to sleep with its next slot, of phase 0, at absolute time at:
// the slot is numbered exactly as Schedule(at, ...) would number an event,
// and each later slot follows the delay of the one before it. h fires at
// the first slot after Wake. s must not already be parked.
func (e *Engine) Park(s *Sleep, at Time, delay [2]Time, h Handler) {
	if at < e.now {
		panic(fmt.Sprintf("engine: sleep parked at %d, before now %d", at, e.now))
	}
	e.seq++
	*s = Sleep{at: at, seq: e.seq, delay: delay, h: h}
	if delay != [2]Time{1, 1} {
		e.nUneven++
	}
	e.pushSleep(s)
}

// Wake ends s's sleep: its next slot fires its handler. It returns how
// many slots of each phase s passed unfired since Park; the owner charges
// the work they stand for. Waking a woken Sleep changes nothing.
func (e *Engine) Wake(s *Sleep) (passed [2]uint64) {
	if !s.woken {
		s.woken = true
		e.nWoken++
	}
	return s.passed
}

// pushSleep inserts s into the ring in (at, seq) order. Its seq is the
// newest, so it goes after every sleep due no later than it.
func (e *Engine) pushSleep(s *Sleep) {
	if e.nSlept == len(e.sleeps) {
		grown := make([]*Sleep, max(8, 2*len(e.sleeps)))
		for i := 0; i < e.nSlept; i++ {
			grown[i] = e.sleeps[(e.sleepHead+i)&(len(e.sleeps)-1)]
		}
		e.sleeps, e.sleepHead = grown, 0
	}
	mask := len(e.sleeps) - 1 // a power of two
	i := (e.sleepHead + e.nSlept) & mask
	for k := e.nSlept; k > 0; k-- {
		prev := (i - 1) & mask
		if e.sleeps[prev].at <= s.at {
			break
		}
		e.sleeps[i] = e.sleeps[prev]
		i = prev
	}
	e.sleeps[i] = s
	e.nSlept++
}

// popSleep removes and returns the earliest sleep.
func (e *Engine) popSleep() *Sleep {
	s := e.sleeps[e.sleepHead]
	e.sleeps[e.sleepHead] = nil
	e.sleepHead = (e.sleepHead + 1) & (len(e.sleeps) - 1)
	e.nSlept--
	return s
}

// nextSleep returns the earliest sleep if its slot precedes every queued
// event, else nil.
func (e *Engine) nextSleep() *Sleep {
	if e.nSlept == 0 {
		return nil
	}
	s := e.sleeps[e.sleepHead]
	if len(e.queue) > 0 {
		if q := &e.queue[0]; q.at < s.at || q.at == s.at && q.seq < s.seq {
			return nil
		}
	}
	return s
}

// Halt stops Run before the next event is dispatched. It is safe to call
// from inside an event.
func (e *Engine) Halt() { e.halted = true }

// AddAfterStep installs a callback invoked after every dispatched event,
// with the clock at that event's time. Observers (invariant monitors) use
// it for periodic scans; the callback must not schedule events or otherwise
// perturb the simulation. Callbacks already installed stay, so independent
// observers (an invariant monitor and an observability collector, say) can
// coexist on one engine; they fire in attachment order.
func (e *Engine) AddAfterStep(fn func(Time)) {
	if fn == nil {
		return
	}
	e.afterStep = append(e.afterStep, fn)
}

// Step dispatches the single earliest pending event, advancing the clock to
// its timestamp. A sleeping Sleep's slot is passed instead: it is counted
// and re-keyed as its next slot, and nothing fires. Step reports false
// when nothing is pending.
func (e *Engine) Step() bool {
	if s := e.nextSleep(); s != nil {
		e.popSleep()
		e.now = s.at
		if s.woken {
			e.nWoken--
			if s.delay != [2]Time{1, 1} {
				e.nUneven--
			}
			e.fire(s.h, Arg{A: s.phase})
			return true
		}
		s.passed[s.phase]++
		s.at += s.delay[s.phase]
		s.phase ^= 1
		e.seq++
		s.seq = e.seq
		e.pushSleep(s)
		return true
	}
	if len(e.queue) == 0 {
		return false
	}
	it := e.pop()
	e.now = it.at
	e.fire(it.h, it.arg)
	return true
}

func (e *Engine) fire(h Handler, arg Arg) {
	e.fired++
	h.Fire(e.now, arg)
	for _, fn := range e.afterStep {
		fn(e.now)
	}
}

// skipSleeps passes at once the whole cycles in which only sleeps are due,
// up to the next queued event or the limit. It applies when every sleep is
// due in the same cycle, none is woken, and each has one-cycle delays:
// each then passes one slot per cycle, in an order that never changes, so
// m cycles re-key sleep j of n (in ring order) with the seq its last slot
// would take, m*n slots after the current one. Otherwise the slots pass
// one at a time in Step.
func (e *Engine) skipSleeps(limit Time) {
	t := e.sleeps[e.sleepHead].at
	var end Time // the first cycle that is not skipped
	switch {
	case len(e.queue) > 0:
		end = e.queue[0].at
		if limit != 0 && end > limit+1 {
			end = limit + 1
		}
	case limit != 0:
		end = limit + 1
	default:
		return
	}
	mask := len(e.sleeps) - 1
	last := e.sleeps[(e.sleepHead+e.nSlept-1)&mask]
	if end <= t || last.at != t || e.nWoken > 0 || e.nUneven > 0 {
		return
	}
	m, n := uint64(end-t), uint64(e.nSlept)
	for j := uint64(0); j < n; j++ {
		s := e.sleeps[(e.sleepHead+int(j))&mask]
		s.passed[s.phase] += (m + 1) / 2
		s.passed[s.phase^1] += m / 2
		s.phase ^= m & 1
		s.at = end
		s.seq = e.seq + (m-1)*n + j + 1
	}
	e.seq += m * n
	e.now = end - 1
}

// nextAt reports the time of the earliest pending slot or event.
func (e *Engine) nextAt() (Time, bool) {
	if s := e.nextSleep(); s != nil {
		return s.at, true
	}
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Run dispatches events until nothing is pending, Halt is called, or the
// clock passes limit (a safety net against livelock in misbehaving
// protocols; limit==0 means no limit). Sleeps pass their slots on the way;
// a run in which only sleeps remain ends only at the limit, as one whose
// spinners kept firing would. It returns the final time and whether the
// run ended because the limit was hit.
func (e *Engine) Run(limit Time) (end Time, hitLimit bool) {
	e.halted = false
	for !e.halted {
		if e.nSlept > 0 {
			e.skipSleeps(limit)
		}
		at, ok := e.nextAt()
		if !ok {
			break
		}
		if limit != 0 && at > limit {
			e.now = limit
			return e.now, true
		}
		e.Step()
	}
	return e.now, false
}
