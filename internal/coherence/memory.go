package coherence

import (
	"fmt"

	"iqolb/internal/engine"
	"iqolb/internal/interconnect"
	"iqolb/internal/mem"
)

// Memory is the home memory controller: the default owner of every line.
// It supplies lines after the DRAM access latency and absorbs writebacks.
// Supplies for a line with a writeback in flight wait for the writeback
// data, preserving per-line data ordering.
type Memory struct {
	f     *Fabric
	lines map[mem.LineID]*memLine

	// bankFree[b] is the cycle DRAM bank b next becomes available; banks
	// are selected by line interleaving, so aggregate bandwidth is
	// MemBanks lines per MemAccess cycles.
	bankFree []engine.Time

	// Statistics.
	Reads      uint64
	Writebacks uint64
	BankStall  uint64 // cycles requests waited for a busy bank
}

// claimBank reserves the line's DRAM bank and returns when the access
// completes.
func (m *Memory) claimBank(line mem.LineID) engine.Time {
	b := int(uint64(line) % uint64(len(m.bankFree)))
	now := m.f.eng.Now()
	start := m.bankFree[b]
	if start < now {
		start = now
	}
	m.BankStall += uint64(start - now)
	done := start + m.f.timing.MemAccess
	m.bankFree[b] = done
	return done
}

// memLine is the home's record for one line: the canonical image, the
// writebacks still in flight to it, and the supplies waiting behind them.
type memLine struct {
	data       mem.LineData
	wbInFlight int
	deferred   []deferredSupply
}

type deferredSupply struct {
	tx        interconnect.Tx
	exclusive bool
	tracked   bool
}

func newMemory(f *Fabric) *Memory {
	return &Memory{
		f:        f,
		lines:    make(map[mem.LineID]*memLine),
		bankFree: make([]engine.Time, f.timing.MemBanks),
	}
}

// line returns the line's record, allocating a zeroed image lazily.
func (m *Memory) line(line mem.LineID) *memLine {
	ml := m.lines[line]
	if ml == nil {
		ml = new(memLine)
		m.lines[line] = ml
	}
	return ml
}

// Poke initializes memory contents before a run (workload setup).
func (m *Memory) Poke(addr mem.Addr, v uint64) {
	m.line(addr.Line()).data[addr.WordIndex()] = v
}

// Peek reads memory contents directly (verification after a run). It does
// not snoop caches; callers must only use it once the machine is quiescent
// or tolerate staleness.
func (m *Memory) Peek(addr mem.Addr) uint64 {
	return m.line(addr.Line()).data[addr.WordIndex()]
}

// supply services a bus transaction from DRAM.
func (m *Memory) supply(tx interconnect.Tx, exclusive bool) {
	m.supplyInternal(tx, exclusive, true)
}

// supplyUntracked services a synthetic (QOLB grant) request that holds no
// bus slot.
func (m *Memory) supplyUntracked(tx interconnect.Tx) {
	m.supplyInternal(tx, true, false)
}

func (m *Memory) supplyInternal(tx interconnect.Tx, exclusive, tracked bool) {
	ml := m.line(tx.Line)
	if ml.wbInFlight > 0 {
		ml.deferred = append(ml.deferred, deferredSupply{tx: tx, exclusive: exclusive, tracked: tracked})
		return
	}
	m.Reads++
	kind := mem.DataShared
	if exclusive {
		kind = mem.DataExclusive
	}
	line := tx.Line
	data := ml.data
	txID := tx.ID
	if !tracked {
		txID = 0
	}
	m.f.eng.At(m.claimBank(line), func(engine.Time) {
		m.f.send(interconnect.Msg{
			Kind: kind, Line: line, Data: data, Dirty: false,
			From: mem.MemoryNode, To: tx.Requester, TxID: txID,
		})
	})
}

// expectWriteback registers an in-flight writeback so supplies defer.
func (m *Memory) expectWriteback(line mem.LineID) {
	m.line(line).wbInFlight++
}

// onData absorbs writeback data and drains deferred supplies.
func (m *Memory) onData(msg interconnect.Msg) {
	if msg.Kind != mem.DataWriteback {
		panic(fmt.Sprintf("coherence: memory received %s", msg.Kind))
	}
	m.Writebacks++
	m.claimBank(msg.Line) // the writeback occupies the bank too
	ml := m.line(msg.Line)
	ml.data = msg.Data
	if ml.wbInFlight == 0 {
		panic("coherence: unexpected writeback")
	}
	ml.wbInFlight--
	if ml.wbInFlight > 0 {
		return
	}
	pend := ml.deferred
	ml.deferred = nil
	for _, d := range pend {
		m.supplyInternal(d.tx, d.exclusive, d.tracked)
	}
}
