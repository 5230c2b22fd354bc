// Package obs is the cycle-accurate observability layer: a structured
// event stream fed by the probe hooks in internal/engine,
// internal/coherence and internal/machine, plus the consumers built on it
// — a Chrome-trace-event (Perfetto) exporter, per-lock contention
// profiles, and a compact metrics Snapshot for harness manifests.
//
// The collectors are strictly passive. They attach through the same
// one-way probe interfaces as the invariant monitor in internal/check, so
// an instrumented run is cycle-for-cycle identical to an uninstrumented
// one, and with no Log attached every hook reduces to an empty-slice (or
// nil) check on the simulator's hot paths.
package obs

import (
	"fmt"
	"sort"

	"iqolb/internal/coherence"
	"iqolb/internal/faults"
	"iqolb/internal/machine"
	"iqolb/internal/mem"
)

// Kind classifies one observed event.
type Kind uint8

const (
	// EvLockAttempt: Node started waiting on the lock at Addr.
	EvLockAttempt Kind = iota
	// EvLockAcquire: Node completed an acquisition of the lock at Addr.
	EvLockAcquire
	// EvLockRelease: Node released the lock at Addr.
	EvLockRelease
	// EvLPRFOIssue: Node put an LPRFO for Line on the address bus.
	EvLPRFOIssue
	// EvDelayStart: Node began delaying its response to Peer's queued
	// LPRFO for Line; A is 1 for a lock-hold delay, 0 for an LL→SC window.
	EvDelayStart
	// EvDelayEnd: Node forwarded the delayed Line to Peer; A is the
	// coherence.DelayEndReason.
	EvDelayEnd
	// EvTearOff: Node sent Peer a read-only tear-off copy of Line.
	EvTearOff
	// EvBusSample: address-bus occupancy changed; A is the arbitration
	// queue length, B the outstanding (granted, data-phase pending) count.
	EvBusSample
	// EvBarrierArrive: processor Node reached barrier episode A.
	EvBarrierArrive
	// EvBarrierRelease: barrier episode A opened with B participants.
	EvBarrierRelease
	// EvFaultInject: an injected fault of kind A (faults.Kind) struck
	// line Line.
	EvFaultInject
	// EvDegrade: the fabric fell back to plain-RFO semantics.
	EvDegrade
)

var kindNames = [...]string{
	"lock-attempt", "lock-acquire", "lock-release", "lprfo-issue",
	"delay-start", "delay-end", "tear-off", "bus-sample",
	"barrier-arrive", "barrier-release", "fault-inject", "degrade",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// NoNode marks an event not attributable to one processor (bus samples,
// barrier releases).
const NoNode = int32(-1)

// Event is one timestamped observation. The meaning of Addr/Line/Peer/A/B
// depends on Kind (see the Kind constants); unused fields are zero except
// Node and Peer, which use NoNode for "not applicable".
type Event struct {
	Cycle uint64 `json:"cycle"`
	Kind  Kind   `json:"kind"`
	Node  int32  `json:"node"`
	Peer  int32  `json:"peer"`
	Addr  uint64 `json:"addr,omitempty"`
	Line  uint64 `json:"line,omitempty"`
	A     uint64 `json:"a,omitempty"`
	B     uint64 `json:"b,omitempty"`
}

// Log accumulates the event stream of one run. It implements
// coherence.SyncProbe and machine.BarrierObserver and provides the bus
// monitor callback; Attach wires all three. Collection order is the
// simulator's deterministic event order, so cycles are nondecreasing and
// two runs of the same spec produce identical logs.
type Log struct {
	now    func() uint64
	procs  int
	events []Event

	lastQueued      uint64
	lastOutstanding uint64
	haveBusSample   bool
}

var (
	_ coherence.SyncProbe     = (*Log)(nil)
	_ coherence.FaultObserver = (*Log)(nil)
	_ machine.BarrierObserver = (*Log)(nil)
)

// NewLog builds a collector for procs processors reading the simulated
// clock through now. Most callers want Attach instead.
func NewLog(procs int, now func() uint64) *Log {
	return &Log{now: now, procs: procs}
}

// Attach builds a Log and hooks it into every probe point of m: the
// coherence fabric's synchronization probes, the address bus occupancy
// monitor, and the hardware barrier. Call before m.Run.
func Attach(m *machine.Machine) *Log {
	eng := m.Engine()
	l := NewLog(m.Processors(), func() uint64 { return uint64(eng.Now()) })
	m.Fabric().AddSyncProbe(l)
	m.Fabric().Bus().SetMonitor(l.BusSample)
	m.SetBarrierObserver(l)
	return l
}

// Events returns the collected stream (caller must not modify it).
func (l *Log) Events() []Event { return l.events }

// Len reports the number of collected events.
func (l *Log) Len() int { return len(l.events) }

// Procs reports the processor count the log was built for.
func (l *Log) Procs() int { return l.procs }

// EndCycle returns the timestamp of the last collected event (zero when
// empty) — the horizon used to close still-open spans at export time.
func (l *Log) EndCycle() uint64 {
	if len(l.events) == 0 {
		return 0
	}
	return l.events[len(l.events)-1].Cycle
}

func (l *Log) add(e Event) {
	e.Cycle = l.now()
	l.events = append(l.events, e)
}

// LockAttempt implements coherence.SyncProbe.
func (l *Log) LockAttempt(node mem.NodeID, addr mem.Addr) {
	l.add(Event{Kind: EvLockAttempt, Node: int32(node), Peer: NoNode, Addr: uint64(addr)})
}

// LockAcquire implements coherence.SyncProbe.
func (l *Log) LockAcquire(node mem.NodeID, addr mem.Addr) {
	l.add(Event{Kind: EvLockAcquire, Node: int32(node), Peer: NoNode, Addr: uint64(addr)})
}

// LockRelease implements coherence.SyncProbe.
func (l *Log) LockRelease(node mem.NodeID, addr mem.Addr) {
	l.add(Event{Kind: EvLockRelease, Node: int32(node), Peer: NoNode, Addr: uint64(addr)})
}

// LPRFOIssue implements coherence.SyncProbe.
func (l *Log) LPRFOIssue(node mem.NodeID, line mem.LineID) {
	l.add(Event{Kind: EvLPRFOIssue, Node: int32(node), Peer: NoNode, Line: uint64(line)})
}

// DelayStart implements coherence.SyncProbe.
func (l *Log) DelayStart(node, waiter mem.NodeID, line mem.LineID, lockHold bool) {
	var hold uint64
	if lockHold {
		hold = 1
	}
	l.add(Event{Kind: EvDelayStart, Node: int32(node), Peer: int32(waiter), Line: uint64(line), A: hold})
}

// DelayEnd implements coherence.SyncProbe.
func (l *Log) DelayEnd(node, waiter mem.NodeID, line mem.LineID, reason coherence.DelayEndReason) {
	l.add(Event{Kind: EvDelayEnd, Node: int32(node), Peer: int32(waiter), Line: uint64(line), A: uint64(reason)})
}

// TearOff implements coherence.SyncProbe.
func (l *Log) TearOff(node, to mem.NodeID, line mem.LineID) {
	l.add(Event{Kind: EvTearOff, Node: int32(node), Peer: int32(to), Line: uint64(line)})
}

// BusSample is the address-bus occupancy callback (interconnect
// Bus.SetMonitor). Consecutive identical samples are collapsed.
func (l *Log) BusSample(queued, outstanding int) {
	q, o := uint64(queued), uint64(outstanding)
	if l.haveBusSample && q == l.lastQueued && o == l.lastOutstanding {
		return
	}
	l.haveBusSample = true
	l.lastQueued, l.lastOutstanding = q, o
	l.add(Event{Kind: EvBusSample, Node: NoNode, Peer: NoNode, A: q, B: o})
}

// FaultInjected implements coherence.FaultObserver: injected faults
// enter the event stream so a faulted trace shows where the campaign
// struck.
func (l *Log) FaultInjected(kind faults.Kind, line mem.LineID) {
	l.add(Event{Kind: EvFaultInject, Node: NoNode, Peer: NoNode, Line: uint64(line), A: uint64(kind)})
}

// Degraded implements coherence.FaultObserver.
func (l *Log) Degraded(reason string) {
	l.add(Event{Kind: EvDegrade, Node: NoNode, Peer: NoNode})
}

// BarrierArrive implements machine.BarrierObserver.
func (l *Log) BarrierArrive(episode int64, cpu int) {
	l.add(Event{Kind: EvBarrierArrive, Node: int32(cpu), Peer: NoNode, A: uint64(episode)})
}

// BarrierRelease implements machine.BarrierObserver.
func (l *Log) BarrierRelease(episode int64, procs int) {
	l.add(Event{Kind: EvBarrierRelease, Node: NoNode, Peer: NoNode, A: uint64(episode), B: uint64(procs)})
}

// lockAddrs returns the distinct lock addresses seen, sorted.
func (l *Log) lockAddrs() []uint64 {
	seen := make(map[uint64]bool)
	for i := range l.events {
		e := &l.events[i]
		switch e.Kind {
		case EvLockAttempt, EvLockAcquire, EvLockRelease:
			seen[e.Addr] = true
		}
	}
	addrs := make([]uint64, 0, len(seen))
	for a := range seen {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}
