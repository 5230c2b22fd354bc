package locks

import (
	"runtime"
	"sync/atomic"
)

// Ticket is the classic FIFO ticket lock with proportional backoff: a
// waiter that is k positions from the head sleeps roughly k critical
// sections' worth of spins between polls. This is the most literal
// software rendering of the paper's thesis — insert a delay sized to the
// expected wait and the line is transferred once per hand-off instead of
// once per poll.
type Ticket struct {
	next    atomic.Uint64
	serving atomic.Uint64
	tun     *Tuning
	instr   instr
}

func newTicket(c config) *Ticket {
	return &Ticket{tun: c.tun, instr: instr{h: c.hooks}}
}

// Name implements Lock.
func (l *Ticket) Name() string { return string(KindTicket) }

// Lock implements Lock.
func (l *Ticket) Lock() {
	start := l.instr.start()
	t := l.next.Add(1) - 1
	unit := l.tun.ticketUnit.Load() // the proportional-delay slope, retunable online
	var rounds uint32
	for {
		s := l.serving.Load()
		if s == t {
			break
		}
		delta := t - s
		if delta > 64 {
			delta = 64 // cap the pause so a serving burst is noticed
		}
		spinLoop(uint32(delta) * unit)
		rounds++
		// Far from the head, or polling for a while: yield too, so
		// oversubscribed runs let the holder (and closer waiters) run —
		// even the next-in-line waiter must not pin a processor.
		if delta > 1 || rounds%32 == 0 {
			runtime.Gosched()
		}
	}
	l.instr.acquired(start)
}

// Unlock implements Lock.
func (l *Ticket) Unlock() {
	l.instr.releasing()
	l.serving.Add(1)
}
