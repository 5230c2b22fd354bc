package obs

import "iqolb/internal/stats"

// SnapshotSchemaVersion identifies the serialized layout of Snapshot (and
// the LockProfile records inside it). Bump it whenever a field is added,
// removed, or changes meaning; the golden-file test under testdata/ pins
// the current shape.
const SnapshotSchemaVersion = 1

// DepthSample is one point of a lock's queue-depth-over-time series: Depth
// processors were waiting (attempted, not yet acquired) from Cycle until
// the next sample.
type DepthSample struct {
	Cycle uint64 `json:"cycle"`
	Depth int    `json:"depth"`
}

// LockProfile is the contention profile of one lock address, derived from
// the event stream after the run.
type LockProfile struct {
	// Addr is the lock's byte address.
	Addr uint64 `json:"addr"`
	// Attempts / Acquires / Releases count the lock's lifecycle events.
	Attempts uint64 `json:"attempts"`
	Acquires uint64 `json:"acquires"`
	Releases uint64 `json:"releases"`
	// AcquiresByProc is the fairness profile: acquisitions per processor.
	AcquiresByProc []uint64 `json:"acquires_by_proc"`
	// MaxQueueDepth is the peak number of simultaneous waiters.
	MaxQueueDepth int `json:"max_queue_depth"`
	// HoldTime distributes acquire→release, HandoffLatency release→next
	// acquire, AcquireWait attempt→acquire — all in cycles.
	HoldTime       stats.Histogram `json:"hold_time"`
	HandoffLatency stats.Histogram `json:"handoff_latency"`
	AcquireWait    stats.Histogram `json:"acquire_wait"`
	// QueueDepth is the full depth-over-time series (one sample per
	// change). Snapshot drops it; the trace exporter renders it as a
	// counter track.
	QueueDepth []DepthSample `json:"queue_depth,omitempty"`
}

// BusProfile summarizes the address-bus occupancy samples.
type BusProfile struct {
	Samples        int    `json:"samples"`
	MaxQueued      uint64 `json:"max_queued"`
	MaxOutstanding uint64 `json:"max_outstanding"`
}

// BarrierProfile summarizes barrier traffic.
type BarrierProfile struct {
	Episodes uint64          `json:"episodes"`
	Span     stats.Histogram `json:"span"` // first arrival -> release, cycles
}

// Snapshot is the compact end-of-run metrics summary: the contention
// profiles without their time series, plus bus and barrier aggregates. It
// is small enough to embed in a harness manifest record.
type Snapshot struct {
	SchemaVersion int            `json:"schema_version"`
	Events        int            `json:"events"`
	EndCycle      uint64         `json:"end_cycle"`
	Locks         []LockProfile  `json:"locks"`
	Bus           BusProfile     `json:"bus"`
	Barriers      BarrierProfile `json:"barriers"`
}

// lockState is the per-lock replay accumulator.
type lockState struct {
	p         *LockProfile
	waitStart map[int32]uint64 // attempt cycle per waiting proc
	depth     int
	holder    int32
	holdStart uint64
	lastRel   uint64
	hasRel    bool
	held      bool
}

// Profiles replays the event stream into per-lock contention profiles,
// sorted by lock address. Spans still open when the log ends (a lock held
// at halt) contribute no histogram sample.
func (l *Log) Profiles() []LockProfile {
	states := make(map[uint64]*lockState)
	get := func(addr uint64) *lockState {
		s := states[addr]
		if s == nil {
			s = &lockState{
				p:         &LockProfile{Addr: addr, AcquiresByProc: make([]uint64, l.procs)},
				waitStart: make(map[int32]uint64),
				holder:    NoNode,
			}
			states[addr] = s
		}
		return s
	}
	for i := range l.events {
		e := &l.events[i]
		switch e.Kind {
		case EvLockAttempt:
			s := get(e.Addr)
			s.p.Attempts++
			if _, dup := s.waitStart[e.Node]; !dup {
				s.waitStart[e.Node] = e.Cycle
				s.depth++
				if s.depth > s.p.MaxQueueDepth {
					s.p.MaxQueueDepth = s.depth
				}
				s.p.QueueDepth = append(s.p.QueueDepth, DepthSample{Cycle: e.Cycle, Depth: s.depth})
			}
		case EvLockAcquire:
			s := get(e.Addr)
			s.p.Acquires++
			if int(e.Node) < len(s.p.AcquiresByProc) {
				s.p.AcquiresByProc[e.Node]++
			}
			if start, ok := s.waitStart[e.Node]; ok {
				s.p.AcquireWait.Add(e.Cycle - start)
				delete(s.waitStart, e.Node)
				s.depth--
				s.p.QueueDepth = append(s.p.QueueDepth, DepthSample{Cycle: e.Cycle, Depth: s.depth})
			}
			if s.hasRel {
				s.p.HandoffLatency.Add(e.Cycle - s.lastRel)
				s.hasRel = false
			}
			s.holder = e.Node
			s.holdStart = e.Cycle
			s.held = true
		case EvLockRelease:
			s := get(e.Addr)
			s.p.Releases++
			if s.held && s.holder == e.Node {
				s.p.HoldTime.Add(e.Cycle - s.holdStart)
			}
			s.held = false
			s.holder = NoNode
			s.lastRel = e.Cycle
			s.hasRel = true
		}
	}
	out := make([]LockProfile, 0, len(states))
	for _, a := range l.lockAddrs() {
		if s := states[a]; s != nil {
			out = append(out, *s.p)
		}
	}
	return out
}

// Snapshot summarizes the run: the profiles with their time series
// stripped, bus occupancy maxima, and barrier episode spans.
func (l *Log) Snapshot() Snapshot {
	snap := Snapshot{
		SchemaVersion: SnapshotSchemaVersion,
		Events:        len(l.events),
		EndCycle:      l.EndCycle(),
		Locks:         l.Profiles(),
	}
	for i := range snap.Locks {
		snap.Locks[i].QueueDepth = nil
	}
	firstArrive := make(map[uint64]uint64)
	for i := range l.events {
		e := &l.events[i]
		switch e.Kind {
		case EvBusSample:
			snap.Bus.Samples++
			if e.A > snap.Bus.MaxQueued {
				snap.Bus.MaxQueued = e.A
			}
			if e.B > snap.Bus.MaxOutstanding {
				snap.Bus.MaxOutstanding = e.B
			}
		case EvBarrierArrive:
			if _, ok := firstArrive[e.A]; !ok {
				firstArrive[e.A] = e.Cycle
			}
		case EvBarrierRelease:
			snap.Barriers.Episodes++
			if start, ok := firstArrive[e.A]; ok {
				snap.Barriers.Span.Add(e.Cycle - start)
				delete(firstArrive, e.A)
			}
		}
	}
	return snap
}
