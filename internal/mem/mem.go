// Package mem defines the primitive vocabulary shared by the whole memory
// system: addresses, cache-line geometry and data, coherence states,
// transaction and access kinds, and the request/result structs exchanged
// between processors and their cache controllers.
package mem

import (
	"fmt"

	"iqolb/internal/engine"
)

// Geometry of the simulated memory system (Table 1 of the paper).
const (
	// LineSize is the coherence granularity in bytes.
	LineSize = 64
	// WordSize is the access granularity of LW/SW/LL/SC in bytes.
	WordSize = 8
	// WordsPerLine is the number of words in a cache line.
	WordsPerLine = LineSize / WordSize
)

// Addr is a byte address in the shared physical address space.
type Addr uint64

// Line returns the cache line containing the address.
func (a Addr) Line() LineID { return LineID(a / LineSize) }

// WordIndex returns the word slot of the address within its line.
func (a Addr) WordIndex() int { return int(a % LineSize / WordSize) }

// Aligned reports whether the address is word-aligned.
func (a Addr) Aligned() bool { return a%WordSize == 0 }

// LineID identifies one cache line in the address space.
type LineID uint64

// Base returns the address of the line's first byte.
func (l LineID) Base() Addr { return Addr(l) * LineSize }

// LineData is the 64-byte payload of one cache line, stored as words.
type LineData [WordsPerLine]uint64

// State is a MOESI cache-line state.
type State uint8

const (
	// Invalid: no copy.
	Invalid State = iota
	// Shared: read-only copy; memory or another cache is responsible for
	// supplying data.
	Shared
	// Exclusive: the only cached copy, clean.
	Exclusive
	// Owned: shared dirty copy responsible for supplying data.
	Owned
	// Modified: the only cached copy, dirty.
	Modified
)

var stateNames = [...]string{"I", "S", "E", "O", "M"}

// String returns the one-letter MOESI name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// CanRead reports whether a copy in state s satisfies a load.
func (s State) CanRead() bool { return s != Invalid }

// CanWrite reports whether a copy in state s satisfies a store.
func (s State) CanWrite() bool { return s == Exclusive || s == Modified }

// IsOwner reports whether a cache holding state s is the line's supplier.
func (s State) IsOwner() bool { return s == Exclusive || s == Owned || s == Modified }

// Dirty reports whether the copy differs from memory.
func (s State) Dirty() bool { return s == Owned || s == Modified }

// NodeID identifies a processor node. MemoryNode is the home memory
// controller, which owns every line that no cache owns.
type NodeID int

// MemoryNode is the NodeID of the home memory controller.
const MemoryNode NodeID = -1

// String renders a node id ("P3" or "Mem").
func (n NodeID) String() string {
	if n == MemoryNode {
		return "Mem"
	}
	return fmt.Sprintf("P%d", int(n))
}

// TxKind is an address-bus transaction type.
type TxKind uint8

const (
	// TxGETS requests a readable copy.
	TxGETS TxKind = iota
	// TxGETX requests an exclusive (writable) copy; a normal
	// read-for-ownership that must be serviced promptly.
	TxGETX
	// TxUPGR requests write permission for a copy already held Shared.
	TxUPGR
	// TxLPRFO is the paper's low-priority read-for-ownership, issued for
	// LL instructions under the delayed-response and IQOLB modes. The
	// owner may delay its response for a bounded time.
	TxLPRFO
	// TxWB writes a dirty evicted line back to memory.
	TxWB
	// TxQOLB is the explicit-QOLB enqueue transaction (the EnQOLB
	// instruction's bus appearance).
	TxQOLB
)

var txNames = [...]string{"GETS", "GETX", "UPGR", "LPRFO", "WB", "QOLB"}

// String returns the transaction mnemonic.
func (t TxKind) String() string {
	if int(t) < len(txNames) {
		return txNames[t]
	}
	return fmt.Sprintf("TxKind(%d)", uint8(t))
}

// WantsOwnership reports whether the transaction asks for a writable copy.
func (t TxKind) WantsOwnership() bool {
	return t == TxGETX || t == TxUPGR || t == TxLPRFO
}

// DataKind classifies a data-network message.
type DataKind uint8

const (
	// DataShared carries a readable copy without ownership transfer.
	DataShared DataKind = iota
	// DataExclusive carries the line together with ownership; the
	// receiver may write.
	DataExclusive
	// DataTearOff is the paper's speculative response: the current value,
	// usable for local spinning, carrying neither ownership nor a durable
	// copy.
	DataTearOff
	// DataWriteback carries a dirty line home to memory.
	DataWriteback
	// DataReturn carries the line back to the queue head after a
	// retention-mode write (the paper's "special marker" path).
	DataReturn
)

var dataNames = [...]string{"DataS", "DataE", "TearOff", "WB", "Return"}

// String returns the data-message mnemonic.
func (d DataKind) String() string {
	if int(d) < len(dataNames) {
		return dataNames[d]
	}
	return fmt.Sprintf("DataKind(%d)", uint8(d))
}

// AccessKind is the kind of memory operation a processor issues.
type AccessKind uint8

const (
	// Load is a plain LW.
	Load AccessKind = iota
	// Store is a plain SW.
	Store
	// LoadLinked is LL: a load that sets the link flag.
	LoadLinked
	// StoreCond is SC: a store that succeeds only if the link is intact.
	StoreCond
	// SwapOp is an atomic exchange.
	SwapOp
	// EnqolbOp joins the explicit QOLB hardware queue for a lock.
	EnqolbOp
	// DeqolbOp releases / hands off an explicit QOLB lock.
	DeqolbOp
)

var accessNames = [...]string{"LW", "SW", "LL", "SC", "SWAP", "ENQOLB", "DEQOLB"}

// String returns the access mnemonic.
func (k AccessKind) String() string {
	if int(k) < len(accessNames) {
		return accessNames[k]
	}
	return fmt.Sprintf("AccessKind(%d)", uint8(k))
}

// IsWrite reports whether the access may modify memory.
func (k AccessKind) IsWrite() bool {
	switch k {
	case Store, StoreCond, SwapOp, DeqolbOp:
		return true
	}
	return false
}

// Request is one memory operation presented by a processor to its cache
// controller. Done fires exactly once, at the completion cycle, with the
// Result packed by Result.Arg. The requester binds Done once, so a request
// carries no per-operation closure.
type Request struct {
	Kind  AccessKind
	Addr  Addr
	Value uint64 // store/SC/swap datum
	PC    int    // issuing instruction index, for the lock predictor
	Done  engine.Handler
}

// Result reports the outcome of a Request.
type Result struct {
	Value   uint64 // load value; swap returns the old value
	OK      bool   // SC success; Enqolb: lock already free and acquired
	TearOff bool   // the value came from a tear-off copy
}

const (
	resultOK = 1 << iota
	resultTearOff
)

// Arg packs the result as the event argument Request.Done receives.
func (r Result) Arg() engine.Arg {
	var flags uint64
	if r.OK {
		flags |= resultOK
	}
	if r.TearOff {
		flags |= resultTearOff
	}
	return engine.Arg{A: r.Value, B: flags}
}

// ResultOf unpacks the event argument Request.Done receives.
func ResultOf(a engine.Arg) Result {
	return Result{Value: a.A, OK: a.B&resultOK != 0, TearOff: a.B&resultTearOff != 0}
}

// DoneFunc adapts a callback to Request.Done.
type DoneFunc func(Result)

// Fire calls f with the unpacked result.
func (f DoneFunc) Fire(_ engine.Time, a engine.Arg) { f(ResultOf(a)) }
