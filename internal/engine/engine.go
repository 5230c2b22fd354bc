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
}

// New returns an empty engine with the clock at cycle zero.
func New() *Engine {
	return &Engine{queue: make([]item, 0, 1024)}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

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
// its timestamp. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	it := e.pop()
	e.now = it.at
	e.fired++
	it.h.Fire(e.now, it.arg)
	for _, fn := range e.afterStep {
		fn(e.now)
	}
	return true
}

// Run dispatches events until the queue drains, Halt is called, or the
// clock passes limit (a safety net against livelock in misbehaving
// protocols; limit==0 means no limit). It returns the final time and
// whether the run ended because the limit was hit.
func (e *Engine) Run(limit Time) (end Time, hitLimit bool) {
	e.halted = false
	for len(e.queue) > 0 && !e.halted {
		if limit != 0 && e.queue[0].at > limit {
			e.now = limit
			return e.now, true
		}
		e.Step()
	}
	return e.now, false
}
