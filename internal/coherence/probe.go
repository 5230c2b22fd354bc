package coherence

import (
	"iqolb/internal/faults"
	"iqolb/internal/interconnect"
	"iqolb/internal/mem"
)

// Probe observes the protocol's externally meaningful events: bus-order
// observation, data-network traffic, cache installs, committed stores, and
// queue breakdowns. It exists for the invariant monitors in internal/check
// and the observability collectors in internal/obs — the protocol never
// reads anything back from it, so a probe cannot perturb a run (it must
// not call back into the fabric).
//
// All methods are invoked synchronously inside the event that caused them,
// so a probe sees a consistent global snapshot: no other protocol activity
// interleaves with a callback.
type Probe interface {
	// Observe fires at the coherence point, when tx becomes globally
	// ordered on the address bus, before the fabric routes it.
	Observe(tx interconnect.Tx)
	// DataSend fires when a data message enters the crossbar.
	DataSend(m interconnect.Msg)
	// DataDeliver fires when a data message arrives, before the receiving
	// controller processes it.
	DataDeliver(m interconnect.Msg)
	// Install fires after node has placed line into its hierarchy with the
	// given state (including upgrade grants, which install in place).
	Install(node mem.NodeID, line mem.LineID, state mem.State)
	// CommitStore fires when a store-class operation (Store, successful
	// StoreCond, Swap) commits its value to a cached copy of addr.
	CommitStore(node mem.NodeID, addr mem.Addr, value uint64)
	// Squash fires when node abandons its queued LPRFO and re-issues
	// (queue breakdown).
	Squash(node mem.NodeID, line mem.LineID)
}

// DelayEndReason classifies how a delayed response ended.
type DelayEndReason uint8

const (
	// DelayFlushed: the delay's purpose completed (SC performed or the
	// lock was released) and the line was forwarded on the hand-off path.
	DelayFlushed DelayEndReason = iota
	// DelayTimedOut: the time-out safety net (or an eviction, which is
	// charged the same way) forced the response out before the release.
	DelayTimedOut
)

// SyncProbe observes the synchronization-level events layered over the
// base protocol: lock acquire attempts, acquisitions and releases at
// registered lock addresses, LPRFO issue, the delayed-response window, and
// tear-off hand-outs. It exists for the observability layer in
// internal/obs; like Probe, it is strictly one-way.
//
// A SyncProbe fires only for addresses registered with RegisterLockAddr
// (the lock-addressed callbacks) or for the line-addressed delay/tear-off
// machinery, which is inherently lock-related under the LPRFO modes.
type SyncProbe interface {
	// LockAttempt fires when node starts waiting on a registered lock (the
	// first LL or EnQOLB of an acquire attempt). It fires once per
	// attempt: local spinning does not repeat it.
	LockAttempt(node mem.NodeID, addr mem.Addr)
	// LockAcquire fires when node completes an acquisition of a registered
	// lock (SC success classified at the lock address, or a QOLB grant).
	LockAcquire(node mem.NodeID, addr mem.Addr)
	// LockRelease fires when node releases a registered lock (release
	// store or DeQOLB).
	LockRelease(node mem.NodeID, addr mem.Addr)
	// LPRFOIssue fires when node puts an LPRFO transaction on the bus
	// (first issue and breakdown re-issue alike).
	LPRFOIssue(node mem.NodeID, line mem.LineID)
	// DelayStart fires when node begins delaying its response to waiter's
	// queued LPRFO (the paper's Δ); lockHold distinguishes a lock-hold
	// delay from an LL→SC window delay.
	DelayStart(node, waiter mem.NodeID, line mem.LineID, lockHold bool)
	// DelayEnd fires when the delayed line is forwarded to waiter, with
	// the reason the delay ended.
	DelayEnd(node, waiter mem.NodeID, line mem.LineID, reason DelayEndReason)
	// TearOff fires when node sends to a read-only tear-off copy of line.
	TearOff(node, to mem.NodeID, line mem.LineID)
}

// FaultObserver receives fault-injection and degradation notifications
// (see faults.go). Probes that also implement it are attached to this
// stream automatically; like the other probe interfaces it is strictly
// one-way.
type FaultObserver interface {
	// FaultInjected fires when an armed fault strikes at line.
	FaultInjected(kind faults.Kind, line mem.LineID)
	// Degraded fires once, when the fabric falls back to plain-RFO
	// semantics.
	Degraded(reason string)
}

// AddProbe attaches a protocol probe alongside those already attached
// (the fan-out lets an invariant monitor and an observability collector
// share one run). Probes fire in attachment order. Call before Run. If p
// also implements SyncProbe or FaultObserver it receives those event
// streams too.
func (f *Fabric) AddProbe(p Probe) {
	if p == nil {
		return
	}
	f.probes = append(f.probes, p)
	if sp, ok := p.(SyncProbe); ok {
		f.syncProbes = append(f.syncProbes, sp)
	}
	if fo, ok := p.(FaultObserver); ok {
		f.faultObs = append(f.faultObs, fo)
	}
}

// AddSyncProbe attaches a probe that wants only the synchronization-level
// events, skipping the (much hotter) base protocol stream. If p also
// implements FaultObserver it receives that stream too.
func (f *Fabric) AddSyncProbe(p SyncProbe) {
	if p == nil {
		return
	}
	f.syncProbes = append(f.syncProbes, p)
	if fo, ok := p.(FaultObserver); ok {
		f.faultObs = append(f.faultObs, fo)
	}
}

// The base-probe fan-out. Each wrapper reduces to one len check when no
// probe is attached, keeping the disabled-observability hot path free.

func (f *Fabric) probeObserve(tx interconnect.Tx) {
	for _, p := range f.probes {
		p.Observe(tx)
	}
}

func (f *Fabric) probeDataSend(m interconnect.Msg) {
	for _, p := range f.probes {
		p.DataSend(m)
	}
}

func (f *Fabric) probeDataDeliver(m interconnect.Msg) {
	for _, p := range f.probes {
		p.DataDeliver(m)
	}
}

func (f *Fabric) probeSquash(node mem.NodeID, line mem.LineID) {
	for _, p := range f.probes {
		p.Squash(node, line)
	}
}

// probeInstall reports an install (or in-place writable upgrade) on c.
func (c *Controller) probeInstall(line mem.LineID, state mem.State) {
	for _, p := range c.f.probes {
		p.Install(c.id, line, state)
	}
}

// probeCommit reports a committed store-class write on c.
func (c *Controller) probeCommit(addr mem.Addr, v uint64) {
	for _, p := range c.f.probes {
		p.CommitStore(c.id, addr, v)
	}
}

// The sync-probe fan-out.

func (f *Fabric) probeLockAttempt(node mem.NodeID, addr mem.Addr) {
	for _, p := range f.syncProbes {
		p.LockAttempt(node, addr)
	}
}

func (f *Fabric) probeLockAcquire(node mem.NodeID, addr mem.Addr) {
	for _, p := range f.syncProbes {
		p.LockAcquire(node, addr)
	}
}

func (f *Fabric) probeLockRelease(node mem.NodeID, addr mem.Addr) {
	for _, p := range f.syncProbes {
		p.LockRelease(node, addr)
	}
}

func (f *Fabric) probeLPRFOIssue(node mem.NodeID, line mem.LineID) {
	for _, p := range f.syncProbes {
		p.LPRFOIssue(node, line)
	}
}

func (f *Fabric) probeDelayStart(node, waiter mem.NodeID, line mem.LineID, lockHold bool) {
	for _, p := range f.syncProbes {
		p.DelayStart(node, waiter, line, lockHold)
	}
}

func (f *Fabric) probeDelayEnd(node, waiter mem.NodeID, line mem.LineID, reason DelayEndReason) {
	for _, p := range f.syncProbes {
		p.DelayEnd(node, waiter, line, reason)
	}
}

func (f *Fabric) probeTearOff(node, to mem.NodeID, line mem.LineID) {
	for _, p := range f.syncProbes {
		p.TearOff(node, to, line)
	}
}

// The fault-observer fan-out.

func (f *Fabric) probeFaultInjected(kind faults.Kind, line mem.LineID) {
	for _, p := range f.faultObs {
		p.FaultInjected(kind, line)
	}
}

func (f *Fabric) probeDegraded(reason string) {
	for _, p := range f.faultObs {
		p.Degraded(reason)
	}
}
