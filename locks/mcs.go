package locks

import (
	"sync"
	"sync/atomic"
)

// mcsNode is one waiter's queue entry. blocked is the private flag the
// waiter spins on; the predecessor's release writes it — exactly one
// cache line moves per hand-off, the property the hardware queue (QOLB/
// IQOLB) gets from the coherence protocol.
type mcsNode struct {
	next    atomic.Pointer[mcsNode]
	blocked atomic.Uint32
}

var mcsPool = sync.Pool{New: func() any { return new(mcsNode) }}

// MCS is the Mellor-Crummey/Scott queue lock: waiters form an explicit
// linked queue, each spinning on its own node, and the releaser hands the
// lock directly to its successor. FIFO-fair and single-transfer under
// contention — the software analogue of IQOLB's releaser→waiter grant.
type MCS struct {
	tail atomic.Pointer[mcsNode]
	// holder is the current holder's node; written after acquiring and
	// read at Unlock, so it is protected by the lock itself.
	holder *mcsNode
	instr  instr
}

func newMCS(c config) *MCS {
	return &MCS{instr: instr{h: c.hooks}}
}

// Name implements Lock.
func (l *MCS) Name() string { return string(KindMCS) }

// Lock implements Lock.
func (l *MCS) Lock() {
	start := l.instr.start()
	n := mcsPool.Get().(*mcsNode)
	n.next.Store(nil)
	n.blocked.Store(1)
	if pred := l.tail.Swap(n); pred != nil {
		pred.next.Store(n)
		var w waitSpin
		for n.blocked.Load() != 0 {
			w.pause()
		}
	}
	l.holder = n
	l.instr.acquired(start)
}

// Unlock implements Lock.
func (l *MCS) Unlock() {
	n := l.holder
	l.instr.releasing()
	next := n.next.Load()
	if next == nil {
		// No known successor: try to close the queue.
		if l.tail.CompareAndSwap(n, nil) {
			mcsPool.Put(n)
			return
		}
		// A successor is mid-enqueue; wait for its link.
		var w waitSpin
		for next = n.next.Load(); next == nil; next = n.next.Load() {
			w.pause()
		}
	}
	next.blocked.Store(0)
	// After the hand-off nobody references n: the successor wrote
	// n.next during enqueue and never reads it again.
	mcsPool.Put(n)
}
