// Package engine provides the deterministic discrete-event core that drives
// the multiprocessor simulation.
//
// All simulator components (processors, caches, buses, memory controllers)
// schedule work as events on a single Engine. Events fire in nondecreasing
// time order; events scheduled for the same cycle fire in the order they
// were scheduled (FIFO by a monotonically increasing sequence number), which
// makes every simulation bit-for-bit reproducible.
package engine

import (
	"container/heap"
	"fmt"
)

// Time is the simulated clock, measured in processor cycles.
type Time uint64

// Event is a callback scheduled to run at a particular simulated time.
type Event func(now Time)

type item struct {
	at   Time
	seq  uint64
	call Event
}

type eventHeap []item

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(item)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Engine is a deterministic discrete-event scheduler.
//
// The zero value is not ready to use; call New.
type Engine struct {
	now       Time
	seq       uint64
	queue     eventHeap
	fired     uint64
	halted    bool
	afterStep []func(Time)
}

// New returns an empty engine with the clock at cycle zero.
func New() *Engine {
	return &Engine{queue: make(eventHeap, 0, 1024)}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending reports how many events are waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// At schedules ev to fire at absolute time at. Scheduling into the past
// panics: it would silently corrupt causality and always indicates a bug in
// a component's latency arithmetic.
func (e *Engine) At(at Time, ev Event) {
	if at < e.now {
		panic(fmt.Sprintf("engine: event scheduled at %d, before now %d", at, e.now))
	}
	e.seq++
	heap.Push(&e.queue, item{at: at, seq: e.seq, call: ev})
}

// After schedules ev to fire delay cycles from now.
func (e *Engine) After(delay Time, ev Event) {
	e.At(e.now+delay, ev)
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
	it := heap.Pop(&e.queue).(item)
	e.now = it.at
	e.fired++
	it.call(e.now)
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
