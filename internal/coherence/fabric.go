package coherence

import (
	"fmt"

	"iqolb/internal/core"
	"iqolb/internal/engine"
	"iqolb/internal/faults"
	"iqolb/internal/interconnect"
	"iqolb/internal/mem"
	"iqolb/internal/qolb"
	"iqolb/internal/stats"
	"iqolb/internal/trace"
)

// dirEntry is the fabric's directory record for one line. Its two registers
// drive routing, mirroring the paper's implicit queue:
//
//   - holder: the node the line's data currently lives at (or is in flight
//     to). Plain GETS/GETX requests are serviced by the holder.
//   - owner: the end of the LPRFO chain — the node that will possess the
//     line last. LPRFO requests queue there, so the chain of pending
//     supply duties is exactly the bus-order queue of §3.2.
//
// A line without a record lives at memory (see Fabric.at).
type dirEntry struct {
	owner, holder mem.NodeID
	stuck         bool // an injected StuckDelay wedged the line (faults.go)
}

// lockEntry is the fabric's record for one registered lock address: the
// time of a release not yet matched by the next acquire, for the hand-off
// latency statistic.
type lockEntry struct {
	released    bool
	lastRelease engine.Time
}

// Fabric owns the global pieces of the memory system: the address bus, the
// data crossbar, the home memory controller, the explicit-QOLB queue
// manager, one directory record per line (owner, holder, stuck mark) that
// routes each transaction to its supplier, and one record per registered
// lock address.
type Fabric struct {
	eng    *engine.Engine
	timing Timing
	bus    *interconnect.Bus
	net    *interconnect.Network
	memory *Memory
	nodes  []*Controller
	qolb   *qolb.Manager

	dir   map[mem.LineID]*dirEntry
	locks map[mem.Addr]*lockEntry

	st         *stats.Machine
	rec        *trace.Recorder
	probes     []Probe
	syncProbes []SyncProbe
	faultObs   []FaultObserver

	// Fault injection and graceful degradation (see faults.go).
	inj           *faults.Injector
	degraded      bool
	degradeReason string
}

// NewFabric assembles the memory system for n nodes. Each node's
// controller is built with its own policy instance derived from coreCfg.
func NewFabric(eng *engine.Engine, timing Timing, geo CacheGeometry, coreCfg core.Config,
	n int, st *stats.Machine, rec *trace.Recorder) (*Fabric, error) {
	if err := timing.Validate(); err != nil {
		return nil, err
	}
	if err := coreCfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("coherence: need at least one node, got %d", n)
	}
	f := &Fabric{
		eng:    eng,
		timing: timing,
		dir:    make(map[mem.LineID]*dirEntry),
		locks:  make(map[mem.Addr]*lockEntry),
		st:     st,
		rec:    rec,
	}
	f.bus = interconnect.NewBus(eng, timing.BusConfig(), f.observe)
	f.net = interconnect.NewNetwork(eng, timing.NetConfig(), f.deliver)
	f.memory = newMemory(f)
	f.qolb = qolb.NewManager(f.grantQOLB)
	f.nodes = make([]*Controller, n)
	for i := 0; i < n; i++ {
		pol, err := core.NewPolicy(coreCfg)
		if err != nil {
			return nil, err
		}
		f.nodes[i] = newController(mem.NodeID(i), f, geo, pol, &st.Nodes[i])
	}
	return f, nil
}

// Node returns controller i (the processor's memory port).
func (f *Fabric) Node(i int) *Controller { return f.nodes[i] }

// Memory returns the home memory controller.
func (f *Fabric) Memory() *Memory { return f.memory }

// QOLB returns the explicit-QOLB manager.
func (f *Fabric) QOLB() *qolb.Manager { return f.qolb }

// Bus exposes the address bus (stats).
func (f *Fabric) Bus() *interconnect.Bus { return f.bus }

// Net exposes the data network (stats).
func (f *Fabric) Net() *interconnect.Network { return f.net }

// RegisterLockAddr marks an address as a lock for the hand-off latency
// statistics (workload generators call this; it has no protocol effect).
func (f *Fabric) RegisterLockAddr(a mem.Addr) {
	if f.locks[a] == nil {
		f.locks[a] = new(lockEntry)
	}
}

func (f *Fabric) isLockAddr(a mem.Addr) bool { return f.locks[a] != nil }

func (f *Fabric) recordRelease(node mem.NodeID, a mem.Addr) {
	if l := f.locks[a]; l != nil {
		l.released, l.lastRelease = true, f.eng.Now()
		f.probeLockRelease(node, a)
	}
}

func (f *Fabric) recordAcquire(node mem.NodeID, a mem.Addr) {
	l := f.locks[a]
	if l == nil {
		return
	}
	f.probeLockAcquire(node, a)
	if l.released {
		f.st.LockHandoff.Add(uint64(f.eng.Now() - l.lastRelease))
		l.released = false
	}
}

// noteLockAttempt reports the start of an acquire attempt at a registered
// lock address (controllers call it from their first LL or EnQOLB).
func (f *Fabric) noteLockAttempt(node mem.NodeID, a mem.Addr) {
	if f.isLockAddr(a) {
		f.probeLockAttempt(node, a)
	}
}

// at reads the line's directory record, by value; a line without one is at
// home: memory holds it and ends its (empty) chain.
func (f *Fabric) at(line mem.LineID) dirEntry {
	if e := f.dir[line]; e != nil {
		return *e
	}
	return dirEntry{owner: mem.MemoryNode, holder: mem.MemoryNode}
}

// track returns the line's directory record for writing, creating it (at
// home) on first use.
func (f *Fabric) track(line mem.LineID) *dirEntry {
	e := f.dir[line]
	if e == nil {
		home := f.at(line)
		e = &home
		f.dir[line] = e
	}
	return e
}

func (f *Fabric) holderOf(line mem.LineID) mem.NodeID { return f.at(line).holder }

func (f *Fabric) ownerOf(line mem.LineID) mem.NodeID { return f.at(line).owner }

func (f *Fabric) setHolder(line mem.LineID, n mem.NodeID) { f.track(line).holder = n }

func (f *Fabric) setOwner(line mem.LineID, n mem.NodeID) { f.track(line).owner = n }

// send puts a data message on the crossbar, maintaining the holder register
// and the trace/stat streams.
func (f *Fabric) send(m interconnect.Msg) {
	f.probeDataSend(m)
	switch m.Kind {
	case mem.DataExclusive:
		if !m.Loan {
			f.setHolder(m.Line, m.To)
			// A transfer out of the registered chain end passes that
			// status to the receiver (e.g. a plain write request that
			// chased the line down the chain and was served by its last
			// member, or an eviction-forward from the end).
			f.setOwnerIfHeldBy(m.Line, m.From, m.To)
		}
	case mem.DataReturn:
		f.setHolder(m.Line, m.To)
	case mem.DataWriteback:
		f.setHolder(m.Line, mem.MemoryNode)
		f.setOwnerIfHeldBy(m.Line, m.From, mem.MemoryNode)
	}
	if m.From != mem.MemoryNode {
		f.st.Nodes[m.From].DataSent[m.Kind]++
	}
	if f.rec.Wants(m.Line) {
		f.rec.Add(trace.Event{At: f.eng.Now(), Kind: trace.EvDataSend, Node: m.From, Peer: m.To,
			Line: m.Line, Data: m.Kind, Note: fmt.Sprintf("w0=%d", m.Data[0])})
	}
	f.net.Send(m)
}

// setOwnerIfHeldBy moves the owner register off a node that is giving the
// line up outside the LPRFO chain (writeback, clean eviction).
func (f *Fabric) setOwnerIfHeldBy(line mem.LineID, from, to mem.NodeID) {
	if f.ownerOf(line) == from {
		f.setOwner(line, to)
	}
}

// setHolderIfNode moves the holder register off a node that downgraded or
// silently dropped its copy.
func (f *Fabric) setHolderIfNode(line mem.LineID, from, to mem.NodeID) {
	if f.holderOf(line) == from {
		f.setHolder(line, to)
	}
}

// deliver routes an arriving data message.
func (f *Fabric) deliver(m interconnect.Msg) {
	f.probeDataDeliver(m)
	f.rec.Add(trace.Event{At: f.eng.Now(), Kind: trace.EvDataRecv, Node: m.To, Peer: m.From,
		Line: m.Line, Data: m.Kind})
	if m.To == mem.MemoryNode {
		f.memory.onData(m)
		return
	}
	f.nodes[m.To].onData(m)
}

// observe is the coherence point: the transaction is now globally ordered.
func (f *Fabric) observe(tx interconnect.Tx) {
	f.probeObserve(tx)
	f.rec.Add(trace.Event{At: f.eng.Now(), Kind: trace.EvTxObserve, Node: tx.Requester,
		Line: tx.Line, Tx: tx.Kind})
	f.st.BusTransactions++
	if tx.Requester != mem.MemoryNode && tx.Kind != mem.TxWB {
		f.nodes[tx.Requester].ownTxObserved(tx.Line)
	}
	switch tx.Kind {
	case mem.TxQOLB:
		f.bus.Complete()
		f.qolb.Enqueue(tx.Requester, tx.Addr)
	case mem.TxWB:
		// Bookkeeping was done synchronously at eviction time; the
		// transaction only charges bus bandwidth.
		f.bus.Complete()
	case mem.TxGETS:
		f.snoopAll(tx)
		sup := f.holderOf(tx.Line)
		if sup == mem.MemoryNode {
			f.memory.supply(tx, false)
		} else {
			f.nodes[sup].addDuty(tx, false)
		}
	case mem.TxUPGR:
		n := f.nodes[tx.Requester]
		if n.hasReadableLine(tx.Line) {
			f.snoopAll(tx)
			if !n.policy.Config().QueueRetention {
				// The waiters squash and re-issue on this broadcast;
				// the upgrader's own queued LPRFO duties go with them.
				n.dropQueuedLPRFOs(tx.Line)
			}
			// Same chain-end rule as observeGETX: an upgrade never moves
			// the owner register past a surviving LPRFO chain.
			if f.ownerOf(tx.Line) == f.holderOf(tx.Line) || !n.policy.Config().QueueRetention {
				f.setOwner(tx.Line, tx.Requester)
			}
			f.setHolder(tx.Line, tx.Requester)
			f.bus.Complete()
			n.upgradeGranted(tx)
		} else {
			// The copy was invalidated while the upgrade waited for the
			// bus: convert to a full read-for-ownership.
			tx.Kind = mem.TxGETX
			f.observeGETX(tx)
		}
	case mem.TxGETX:
		f.observeGETX(tx)
	case mem.TxLPRFO:
		f.snoopAll(tx)
		prev := f.ownerOf(tx.Line)
		if prev == tx.Requester {
			// Stale owner registration (the requester gave the line up
			// outside the chain); fall back to the holder.
			prev = f.holderOf(tx.Line)
			if prev == tx.Requester {
				panic(fmt.Sprintf("coherence: %s LPRFO for line it holds", tx.Requester))
			}
		}
		f.setOwner(tx.Line, tx.Requester)
		if prev == mem.MemoryNode {
			if h := f.holderOf(tx.Line); h != mem.MemoryNode && h != tx.Requester {
				f.nodes[h].addDuty(tx, false)
			} else {
				f.setHolder(tx.Line, tx.Requester)
				f.memory.supply(tx, true)
			}
		} else {
			f.nodes[prev].addDuty(tx, false)
		}
	default:
		panic(fmt.Sprintf("coherence: unknown transaction kind %v", tx.Kind))
	}
}

func (f *Fabric) observeGETX(tx interconnect.Tx) {
	sup := f.holderOf(tx.Line)
	loan := false
	if sup != mem.MemoryNode && sup != tx.Requester && f.nodes[sup].willRetain(tx.Line) {
		loan = true
	}
	f.snoopAll(tx)
	// A plain write request cuts in at the *holder*, ahead of any queued
	// LPRFO chain. The owner register marks the chain's end, so it moves
	// to the writer only when no chain extends beyond the holder — or
	// when the chain has just been dissolved (queue breakdown: the
	// snoop above made every waiter squash and re-issue).
	chainBeyondHolder := f.ownerOf(tx.Line) != sup
	retention := f.nodes[tx.Requester].policy.Config().QueueRetention
	if !loan && (!chainBeyondHolder || !retention) {
		f.setOwner(tx.Line, tx.Requester)
	}
	if sup == mem.MemoryNode {
		f.setHolder(tx.Line, tx.Requester)
		f.memory.supply(tx, true)
	} else if sup == tx.Requester {
		panic(fmt.Sprintf("coherence: %s GETX for line it holds", tx.Requester))
	} else {
		f.nodes[sup].addDuty(tx, loan)
	}
}

// snoopAll broadcasts the transaction to every node except the requester.
func (f *Fabric) snoopAll(tx interconnect.Tx) {
	for _, n := range f.nodes {
		if n.id != tx.Requester {
			n.snoop(tx)
		}
	}
}

// reroute re-delivers a duty that reached a node no longer responsible for
// the line (it raced with a hand-off). The holder register was updated at
// send time, so the chain of reroutes terminates.
func (f *Fabric) reroute(tx interconnect.Tx, loan bool) {
	h := f.holderOf(tx.Line)
	if h == mem.MemoryNode {
		f.memory.supply(tx, tx.Kind.WantsOwnership())
		return
	}
	if h == tx.Requester {
		panic(fmt.Sprintf("coherence: duty for %s rerouted to itself (line %d)", tx.Requester, tx.Line))
	}
	f.nodes[h].addDuty(tx, loan)
}

// grantQOLB delivers an explicit-QOLB lock to a node by migrating the
// lock's cache line there — the single direct transfer that gives QOLB its
// hand-off speed. The grantee's controller completes the pending EnQOLB
// operation when the line arrives.
func (f *Fabric) grantQOLB(node mem.NodeID, addr mem.Addr) {
	line := addr.Line()
	grantee := f.nodes[node]
	if grantee.hasReadableLine(line) {
		// Uncontended re-acquire: the line never left.
		grantee.qolbGrantedLocal(addr)
		return
	}
	h := f.holderOf(line)
	syn := interconnect.Tx{Kind: mem.TxGETX, Addr: addr, Line: line, Requester: node}
	// Invalidate stray shared copies so the grantee gets a writable line.
	f.snoopAll(syn)
	f.setOwner(line, node)
	if h == mem.MemoryNode {
		f.setHolder(line, node)
		f.memory.supplyUntracked(syn)
	} else {
		f.nodes[h].addDuty(syn, false)
	}
}
