// Package check is the correctness-verification subsystem for the IQOLB
// simulator: opt-in protocol-invariant monitors (this file), a bounded
// schedule explorer that permutes coherence-message delivery orders
// (explorer.go), and a differential oracle that runs one workload
// signature under every lock primitive and compares final memory state
// (oracle.go).
//
// The monitors watch the properties the paper's delay machinery is most
// likely to break: single-writer-multiple-reader, the data-value
// invariant, bus-order lock hand-off, tear-off copies staying
// non-coherent, and freedom from starvation of queued LPRFO waiters.
//
// A monitor polls nothing. It checks a line inside the probe callback
// that changed it, and the starvation watchdog runs at an engine
// Deadline, so a monitored run dispatches the same events as a bare one
// and its spinning processors sleep as they would there.
package check

import (
	"fmt"
	"slices"

	"iqolb/internal/coherence"
	"iqolb/internal/engine"
	"iqolb/internal/interconnect"
	"iqolb/internal/machine"
	"iqolb/internal/mem"
)

// Config tunes a Monitor, which a run attaches when it asks for checking.
// The zero value is a sensible setup: a starvation bound derived from the
// policy's delay budgets, and fail-fast halting.
type Config struct {
	// StarvationBound is the maximum age, in cycles, of an observed but
	// ungranted LPRFO before the watchdog flags starvation. 0 derives a
	// bound from the policy's lock/SC delay budgets and the node count.
	StarvationBound engine.Time
	// KeepGoing records violations without halting the engine. The
	// default (false) halts the machine at the end of the first violating
	// event (or at the watchdog's deadline), so a broken run stops
	// burning cycles.
	KeepGoing bool
	// MaxViolations caps the recorded violation list (0 = 32).
	MaxViolations int
	// Degrader, when non-nil, turns the starvation watchdog into a
	// recovery trigger: the first starvation detection calls
	// Degrade(reason) — dropping the machine to plain-RFO semantics —
	// instead of reporting a violation, and every pending grant's clock
	// restarts so the degraded protocol gets a full bound to drain the
	// queue. A second starvation after degradation reports normally.
	// Pass the machine's Fabric.
	Degrader Degrader
}

// Degrader is the graceful-degradation hook the starvation watchdog
// fires: coherence.Fabric implements it by falling back to plain-RFO
// semantics.
type Degrader interface {
	Degrade(reason string)
}

const defaultMaxViolations = 32

// Violation is one observed invariant breach.
type Violation struct {
	At     engine.Time
	Kind   string // "swmr", "data-value", "handoff-order", "tearoff-ownership", "starvation"
	Line   mem.LineID
	Node   mem.NodeID
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("cycle %d: %s: node %s line %d: %s", v.At, v.Kind, v.Node, v.Line, v.Detail)
}

// pendingGrant is an observed LPRFO that has not yet been granted the line.
type pendingGrant struct {
	node  mem.NodeID
	since engine.Time
}

// Monitor implements coherence.Probe. It tracks only lines contended by
// two or more distinct requesters, so private streaming traffic costs one
// map lookup per bus transaction, and checks a tracked line at each
// install into it and each store committed to it: the only places its
// state or value changes in a way that can break an invariant.
type Monitor struct {
	eng       *engine.Engine
	f         *coherence.Fabric
	procs     int
	cfg       Config
	retention bool

	tracked  map[mem.LineID]bool
	firstReq map[mem.LineID]mem.NodeID
	shadow   map[mem.Addr]uint64
	pending  map[mem.LineID][]pendingGrant

	// The tear-off delivery of the event numbered tearEvent (0 = none).
	tearNode  mem.NodeID
	tearLine  mem.LineID
	tearEvent uint64

	armed bool // the starvation watchdog's deadline is set

	checks     uint64
	violations []Violation

	degraded      bool
	degradeReason string
	finishing     bool
}

// Attach builds a monitor over an assembled fabric and hooks it into the
// coherence probe. Call before the machine runs.
func Attach(eng *engine.Engine, f *coherence.Fabric, procs int, cfg Config) *Monitor {
	pol := f.Node(0).Policy().Config()
	if cfg.MaxViolations == 0 {
		cfg.MaxViolations = defaultMaxViolations
	}
	if cfg.StarvationBound == 0 {
		cfg.StarvationBound = engine.Time(procs+1)*(pol.LockTimeout+pol.SCTimeout) + 1_000_000
	}
	mo := &Monitor{
		eng:       eng,
		f:         f,
		procs:     procs,
		cfg:       cfg,
		retention: pol.QueueRetention,
		tracked:   make(map[mem.LineID]bool),
		firstReq:  make(map[mem.LineID]mem.NodeID),
		shadow:    make(map[mem.Addr]uint64),
		pending:   make(map[mem.LineID][]pendingGrant),
	}
	f.AddProbe(mo)
	return mo
}

// AttachToMachine attaches a monitor to an assembled, not-yet-run machine.
func AttachToMachine(m *machine.Machine, cfg Config) *Monitor {
	return Attach(m.Engine(), m.Fabric(), m.Processors(), cfg)
}

// Violations returns the recorded breaches (nil when the run was clean).
func (mo *Monitor) Violations() []Violation { return mo.violations }

// Checks reports how many times a tracked line was checked.
func (mo *Monitor) Checks() uint64 { return mo.checks }

// TrackedLines reports how many contended lines the monitor is checking.
func (mo *Monitor) TrackedLines() int { return len(mo.tracked) }

// Degraded reports whether (and why) the monitor triggered graceful
// degradation via Config.Degrader.
func (mo *Monitor) Degraded() (bool, string) { return mo.degraded, mo.degradeReason }

// Err summarizes the violations as an error, nil if the run was clean.
// A non-nil result is a *ViolationError matching
// errors.Is(err, ErrProtocolViolation).
func (mo *Monitor) Err() error {
	if len(mo.violations) == 0 {
		return nil
	}
	return &ViolationError{Violations: mo.violations}
}

// Finish runs the end-of-run checks (every tracked line, the starvation
// watchdog, and the committed value vs. surviving memory state comparison)
// and returns Err.
func (mo *Monitor) Finish() error {
	// The engine has stopped; degrading now would flush delays into a
	// dead event queue. Starvation found here reports as a violation.
	mo.finishing = true
	now := mo.eng.Now()
	for line := range mo.tracked {
		mo.checkLine(line, now)
	}
	mo.watchdog(now)
	for addr, want := range mo.shadow {
		if got := mo.peek(addr); got != want {
			mo.report(Violation{At: mo.eng.Now(), Kind: "data-value", Line: addr.Line(),
				Node: mem.MemoryNode,
				Detail: fmt.Sprintf("final state of addr %#x is %d, last committed store was %d",
					uint64(addr), got, want)})
		}
	}
	return mo.Err()
}

// peek reads an address the way a quiescent machine would: dirty cached
// copies first, then home memory.
func (mo *Monitor) peek(addr mem.Addr) uint64 {
	for i := 0; i < mo.procs; i++ {
		if v, ok := mo.f.Node(i).PeekWord(addr); ok {
			return v
		}
	}
	return mo.f.Memory().Peek(addr)
}

func (mo *Monitor) report(v Violation) {
	// A broken state persists across the probes of one event (and across
	// events in KeepGoing mode); collapse consecutive repeats.
	if n := len(mo.violations); n > 0 {
		last := mo.violations[n-1]
		if last.Kind == v.Kind && last.Line == v.Line && last.Node == v.Node {
			return
		}
	}
	if len(mo.violations) < mo.cfg.MaxViolations {
		mo.violations = append(mo.violations, v)
	}
	if !mo.cfg.KeepGoing {
		mo.eng.Halt()
	}
}

// ---------------------------------------------------------------------------
// coherence.Probe
// ---------------------------------------------------------------------------

// Observe tracks contention and the bus-order hand-off queue.
func (mo *Monitor) Observe(tx interconnect.Tx) {
	line := tx.Line
	if !mo.tracked[line] {
		if first, ok := mo.firstReq[line]; !ok {
			mo.firstReq[line] = tx.Requester
		} else if first != tx.Requester {
			mo.tracked[line] = true
		}
	}
	if tx.Kind == mem.TxLPRFO {
		now := mo.eng.Now()
		mo.pending[line] = append(mo.pending[line], pendingGrant{node: tx.Requester, since: now})
		if !mo.armed {
			mo.arm(now)
		}
	}
}

// DataSend checks that exclusive grants respect the bus-order queue.
func (mo *Monitor) DataSend(m interconnect.Msg) {
	if m.Kind != mem.DataExclusive || m.Loan || m.To == mem.MemoryNode {
		return
	}
	q := mo.pending[m.Line]
	for i, p := range q {
		if p.node != m.To {
			continue
		}
		if i != 0 {
			mo.report(Violation{At: mo.eng.Now(), Kind: "handoff-order", Line: m.Line, Node: m.To,
				Detail: fmt.Sprintf("granted ahead of %d earlier queued LPRFO(s) (head %s)",
					i, q[0].node)})
		}
		mo.pending[m.Line] = append(q[:i:i], q[i+1:]...)
		return
	}
	// Not in the queue: a plain writer cutting in at the holder, which
	// the paper permits. Nothing to check.
}

// DataDeliver arms the tear-off ownership check for this event.
func (mo *Monitor) DataDeliver(m interconnect.Msg) {
	if m.Kind == mem.DataTearOff {
		mo.tearNode, mo.tearLine, mo.tearEvent = m.To, m.Line, mo.eng.Fired()
	}
}

// Install checks a tracked line at every install into it, and that
// tear-off deliveries never install anything.
func (mo *Monitor) Install(node mem.NodeID, line mem.LineID, state mem.State) {
	if mo.tearEvent == mo.eng.Fired() && mo.tearNode == node && mo.tearLine == line {
		mo.report(Violation{At: mo.eng.Now(), Kind: "tearoff-ownership", Line: line, Node: node,
			Detail: fmt.Sprintf("tear-off delivery installed a durable %s copy", state)})
	}
	if mo.tracked[line] {
		mo.checkLine(line, mo.eng.Now())
	}
}

// CommitStore maintains the last-committed-value shadow for a tracked
// line and checks the line against it.
func (mo *Monitor) CommitStore(node mem.NodeID, addr mem.Addr, value uint64) {
	if line := addr.Line(); mo.tracked[line] {
		mo.shadow[addr] = value
		mo.checkLine(line, mo.eng.Now())
	}
}

// Squash removes the squashing node from the hand-off queue; its re-issued
// LPRFO re-enters at its new bus position with a fresh starvation clock.
func (mo *Monitor) Squash(node mem.NodeID, line mem.LineID) {
	q := mo.pending[line]
	for i, p := range q {
		if p.node == node {
			mo.pending[line] = append(q[:i:i], q[i+1:]...)
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Checking
// ---------------------------------------------------------------------------

// arm sets the watchdog's deadline for a grant pending since since: the
// first cycle at which it would be older than the bound.
func (mo *Monitor) arm(since engine.Time) {
	mo.armed = true
	mo.eng.Deadline(since+mo.cfg.StarvationBound+1, mo.watchdog)
}

// watchdog flags every pending grant older than the bound, in line order,
// and re-arms for the oldest one that is not. The grants granted since
// the deadline was set are gone from the queues, so it may find none.
func (mo *Monitor) watchdog(now engine.Time) {
	mo.armed = false
	oldest := now + 1 // the oldest grant within the bound; now+1 = none
	lines := make([]mem.LineID, 0, len(mo.pending))
	for line := range mo.pending {
		lines = append(lines, line)
	}
	slices.Sort(lines)
	for _, line := range lines {
		for _, p := range mo.pending[line] {
			switch {
			case now-p.since <= mo.cfg.StarvationBound:
				oldest = min(oldest, p.since)
			case mo.cfg.Degrader != nil && !mo.degraded && !mo.finishing:
				// Recovery, not failure: drop the machine to plain-RFO
				// semantics and give every pending grant a fresh
				// starvation clock. Only a second starvation — the
				// degraded protocol itself failing to make progress —
				// is reported as a violation.
				mo.degraded = true
				mo.degradeReason = fmt.Sprintf(
					"starvation: node %s LPRFO on line %d ungranted after %d cycles",
					p.node, line, now-p.since)
				mo.cfg.Degrader.Degrade(mo.degradeReason)
				for _, pq := range mo.pending {
					for i := range pq {
						pq[i].since = now
					}
				}
				mo.arm(now)
				return
			default:
				mo.report(Violation{At: now, Kind: "starvation", Line: line, Node: p.node,
					Detail: fmt.Sprintf("LPRFO observed at cycle %d still ungranted after %d cycles",
						p.since, now-p.since)})
			}
		}
	}
	if oldest <= now && !mo.finishing {
		mo.arm(oldest)
	}
}

// checkLine verifies SWMR and the data-value invariant on one line.
func (mo *Monitor) checkLine(line mem.LineID, now engine.Time) {
	mo.checks++
	exclusive, owned, readers := 0, 0, 0
	exclNode := mem.MemoryNode
	for i := 0; i < mo.procs; i++ {
		st := mo.f.Node(i).State(line)
		switch st {
		case mem.Exclusive, mem.Modified:
			exclusive++
			exclNode = mem.NodeID(i)
		case mem.Owned:
			owned++
		}
		if st.CanRead() {
			readers++
		}
	}
	switch {
	case exclusive > 1:
		mo.report(Violation{At: now, Kind: "swmr", Line: line, Node: exclNode,
			Detail: fmt.Sprintf("%d writable (E/M) copies", exclusive)})
	case exclusive == 1 && readers > 1:
		mo.report(Violation{At: now, Kind: "swmr", Line: line, Node: exclNode,
			Detail: fmt.Sprintf("writable copy coexists with %d other readable copies", readers-1)})
	case exclusive+owned > 1:
		mo.report(Violation{At: now, Kind: "swmr", Line: line, Node: exclNode,
			Detail: fmt.Sprintf("%d owning copies (E/M/O)", exclusive+owned)})
	}
	// Data-value invariant: every readable copy agrees with every other
	// copy and with the last committed store where one is known.
	base := line.Base()
	haveRef := false
	var ref [mem.WordsPerLine]uint64
	for i := 0; i < mo.procs; i++ {
		if !mo.f.Node(i).State(line).CanRead() {
			continue
		}
		for w := 0; w < mem.WordsPerLine; w++ {
			addr := base + mem.Addr(w*mem.WordSize)
			v, ok := mo.f.Node(i).PeekWord(addr)
			if !ok {
				continue
			}
			if want, known := mo.shadow[addr]; known && v != want {
				mo.report(Violation{At: now, Kind: "data-value", Line: line, Node: mem.NodeID(i),
					Detail: fmt.Sprintf("addr %#x reads %d, last committed store was %d",
						uint64(addr), v, want)})
			}
			if haveRef && v != ref[w] {
				mo.report(Violation{At: now, Kind: "data-value", Line: line, Node: mem.NodeID(i),
					Detail: fmt.Sprintf("addr %#x reads %d, another copy reads %d",
						uint64(addr), v, ref[w])})
			}
			if !haveRef {
				ref[w] = v
			}
		}
		haveRef = true
	}
}
