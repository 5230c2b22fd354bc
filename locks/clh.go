package locks

import (
	"sync"
	"sync/atomic"
)

// clhNode is one waiter's queue entry: a single flag its successor spins
// on. CLH queues are implicit — each waiter knows only its predecessor,
// discovered at the tail swap.
type clhNode struct {
	locked atomic.Uint32
}

var clhPool = sync.Pool{New: func() any { return new(clhNode) }}

// CLH is the Craig/Landin/Hagersten queue lock: a waiter publishes a
// "locked" node at the tail and spins on its predecessor's node, so the
// release writes exactly one flag and wakes exactly one waiter. FIFO-fair
// direct hand-off like MCS, but spinning on the predecessor's line rather
// than the waiter's own — the variant whose hand-off the paper's QOLB
// hardware queue most resembles (the grant travels forward through the
// queue).
type CLH struct {
	tail atomic.Pointer[clhNode]
	// holderNode/holderPred are the current holder's own node and the
	// predecessor node it spun on; written after acquiring and read at
	// Unlock, so they are protected by the lock itself.
	holderNode *clhNode
	holderPred *clhNode
	instr      instr
}

func newCLH(c config) *CLH {
	l := &CLH{instr: instr{h: c.hooks}}
	l.tail.Store(new(clhNode)) // initial node: unlocked sentinel
	return l
}

// Name implements Lock.
func (l *CLH) Name() string { return string(KindCLH) }

// Lock implements Lock.
func (l *CLH) Lock() {
	start := l.instr.start()
	n := clhPool.Get().(*clhNode)
	n.locked.Store(1)
	pred := l.tail.Swap(n)
	var w waitSpin
	for pred.locked.Load() != 0 {
		w.pause()
	}
	l.holderNode, l.holderPred = n, pred
	l.instr.acquired(start)
}

// Unlock implements Lock.
func (l *CLH) Unlock() {
	n, pred := l.holderNode, l.holderPred
	l.instr.releasing()
	// pred was observed unlocked and no one else references it — it is
	// the recycled node (in classic CLH the releaser adopts it; a pool
	// serves the same purpose across goroutines).
	clhPool.Put(pred)
	n.locked.Store(0)
}
