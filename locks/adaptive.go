package locks

import "sync/atomic"

// Adaptive is a spin-then-queue lock in the spirit of Fissile and
// Reciprocating locks: mutual exclusion lives in one test&set word, but
// waiters that fail a short bounded backoff phase park in an MCS-style
// queue from which only the head competes for the word. Uncontended
// acquisitions stay a single CAS; contended ones degrade to at most two
// goroutines touching the lock word (the head and any newly arrived
// optimist), which is the adaptive switch-on-observed-contention policy
// the simulator's predictor implements in hardware.
//
// Fairness is deliberately looser than MCS/CLH: a fresh arrival in its
// spin phase can barge past the queue head, trading strict FIFO for the
// uncontended fast path — the same trade spin-then-queue designs make.
type Adaptive struct {
	state atomic.Uint32
	tail  atomic.Pointer[mcsNode]
	tun   *Tuning
	instr instr
}

func newAdaptive(c config) *Adaptive {
	return &Adaptive{tun: c.tun, instr: instr{h: c.hooks}}
}

// Name implements Lock.
func (l *Adaptive) Name() string { return string(KindAdaptive) }

// Lock implements Lock.
func (l *Adaptive) Lock() {
	start := l.instr.start()
	if l.state.CompareAndSwap(0, 1) { // uncontended fast path
		l.instr.acquired(start)
		return
	}
	// Optimistic phase: bounded exponential backoff on the word. The
	// attempt budget is the controller's main knob on this lock — high
	// contention shrinks it toward zero (queue immediately, IQOLB-style
	// single transfer), low contention grows it (stay on the fast path).
	attempts := l.tun.spinAttempts.Load()
	b := l.tun.backoff()
	for a := uint32(0); a < attempts; a++ {
		if l.state.Load() == 0 && l.state.CompareAndSwap(0, 1) {
			l.instr.acquired(start)
			return
		}
		b.pause()
	}
	// Contended: join the queue and wait to become its head.
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
	// Queue head: the only queued goroutine spinning on the word.
	var w waitSpin
	for !l.state.CompareAndSwap(0, 1) {
		for l.state.Load() != 0 {
			w.pause()
		}
	}
	// Acquired. Pass head status to the successor (it will spin on the
	// word during our critical section) and retire our node.
	next := n.next.Load()
	if next == nil {
		if !l.tail.CompareAndSwap(n, nil) {
			var ws waitSpin
			for next = n.next.Load(); next == nil; next = n.next.Load() {
				ws.pause()
			}
		}
	}
	if next != nil {
		next.blocked.Store(0)
	}
	mcsPool.Put(n)
	l.instr.acquired(start)
}

// Unlock implements Lock.
func (l *Adaptive) Unlock() {
	l.instr.releasing()
	l.state.Store(0)
}
