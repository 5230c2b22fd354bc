// Package stats collects the measurements the experiment harness reports:
// coherence-transaction counts by kind, data-network traffic, LL/SC
// outcomes, lock events, and latency histograms.
package stats

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Histogram is a simple power-of-two-bucketed latency histogram.
type Histogram struct {
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
	buckets map[int]uint64 // bucket i covers [2^i, 2^(i+1))
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	if h.buckets == nil {
		h.buckets = make(map[int]uint64)
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	b := 0
	for x := v; x > 1; x >>= 1 {
		b++
	}
	h.buckets[b]++
}

// Merge folds every sample of o into h (bucket-exact: merging histograms
// is equivalent to having Added all samples into one). o is unchanged; a
// nil or empty o is a no-op. Used to combine per-client and per-shard
// histograms after a load run and in a service snapshot.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	if o.Max > h.Max {
		h.Max = o.Max
	}
	h.Count += o.Count
	h.Sum += o.Sum
	if h.buckets == nil {
		h.buckets = make(map[int]uint64, len(o.buckets))
	}
	for b, n := range o.buckets {
		h.buckets[b] += n
	}
}

// Mean returns the average sample, or zero with no samples.
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Percentile returns the p-th percentile (p in [0,100]) by linear
// interpolation inside the power-of-two bucket that contains the target
// rank. The recorded Min/Max clamp the bucket edges, so Percentile(0)
// is Min and Percentile(100) is Max exactly.
func (h *Histogram) Percentile(p float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if p <= 0 {
		return float64(h.Min)
	}
	if p >= 100 {
		return float64(h.Max)
	}
	target := p / 100 * float64(h.Count)
	var keys []int
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var cum float64
	for _, k := range keys {
		n := float64(h.buckets[k])
		if cum+n < target {
			cum += n
			continue
		}
		lo, hi := bucketBounds(k)
		if lo < float64(h.Min) {
			lo = float64(h.Min)
		}
		if hi > float64(h.Max) {
			hi = float64(h.Max)
		}
		if hi < lo {
			hi = lo
		}
		frac := (target - cum) / n
		return lo + frac*(hi-lo)
	}
	return float64(h.Max)
}

// bucketBounds returns the value range covered by bucket b: bucket 0
// holds samples in [0,1], bucket i>0 holds [2^i, 2^(i+1)).
func bucketBounds(b int) (lo, hi float64) {
	if b == 0 {
		return 0, 1
	}
	lo = float64(uint64(1) << b)
	return lo, 2*lo - 1
}

// histogramJSON is the serialized form of Histogram; the bucket map is
// exported so cached results round-trip bit-exactly.
type histogramJSON struct {
	Count   uint64         `json:"count"`
	Sum     uint64         `json:"sum"`
	Min     uint64         `json:"min"`
	Max     uint64         `json:"max"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// MarshalJSON serializes the histogram including its buckets.
func (h Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{h.Count, h.Sum, h.Min, h.Max, h.buckets})
}

// UnmarshalJSON restores a histogram serialized by MarshalJSON.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var hj histogramJSON
	if err := json.Unmarshal(data, &hj); err != nil {
		return err
	}
	*h = Histogram{Count: hj.Count, Sum: hj.Sum, Min: hj.Min, Max: hj.Max, buckets: hj.Buckets}
	return nil
}

// String renders "count mean [min,max]" plus the occupied buckets.
func (h *Histogram) String() string {
	if h.Count == 0 {
		return "n=0"
	}
	var keys []int
	for k := range h.buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "n=%d mean=%.1f min=%d max=%d", h.Count, h.Mean(), h.Min, h.Max)
	for _, k := range keys {
		fmt.Fprintf(&sb, " [2^%d:%d]", k, h.buckets[k])
	}
	return sb.String()
}

// Jain is Jain's fairness index over per-actor completed-work counts:
// 1 = perfectly even, 1/n = one actor did everything, 0 = no work (or
// no actors). The service load generator feeds it per-client grants.
func Jain(xs []uint64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sq += f * f
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Node aggregates per-node (per-controller) counters.
type Node struct {
	// Address-bus transactions issued by this node, by kind index
	// (mem.TxKind). Sized generously to avoid importing mem here.
	TxIssued [8]uint64

	// Data-network messages sent by this node, by kind index
	// (mem.DataKind).
	DataSent [8]uint64

	// LL/SC outcomes observed at the controller.
	LLCount     uint64
	SCSuccess   uint64
	SCFail      uint64
	SwapCount   uint64
	LoadCount   uint64
	StoreCount  uint64
	LocalSpins  uint64 // LLs satisfied locally while waiting (tear-off or S copy)
	TearOffsIn  uint64
	TearOffsOut uint64

	// Delay machinery.
	DelaysStarted   uint64
	DelaysReleased  uint64 // ended by SC completion or lock release
	DelayTimeouts   uint64
	DelayEvictions  uint64 // delayed line evicted: treated as timeout
	QueueBreakdowns uint64 // retention off: waiters squashed by a plain RFO
	RetentionTrips  uint64 // retention on: line loaned out and returned

	// Lock-level events (IQOLB policy view).
	LockAcquires    uint64
	LockReleases    uint64
	PredictorHits   uint64
	PredictorMisses uint64

	// Explicit QOLB events.
	QOLBEnqueues uint64
	QOLBHandoffs uint64

	// L1/L2 hit accounting is kept in the cache arrays; controllers fold
	// them in at report time.
	L1Hits, L1Misses uint64
	L2Hits, L2Misses uint64
}

// Machine aggregates a whole run.
type Machine struct {
	Nodes []Node

	// Global clock at completion.
	Cycles uint64

	// Address bus.
	BusTransactions uint64
	BusBusyCycles   uint64
	BusMaxQueue     int

	// Memory controller.
	MemReads      uint64
	MemWritebacks uint64

	// Latency distributions.
	LockHandoff Histogram // release -> next acquire completion
	AcquireWait Histogram // acquire start -> critical section entry
	MissLatency Histogram // controller miss -> fill
}

// NewMachine sizes the per-node slice.
func NewMachine(nodes int) *Machine {
	return &Machine{Nodes: make([]Node, nodes)}
}

// TotalTx sums address transactions of kind k across nodes.
func (m *Machine) TotalTx(kind int) uint64 {
	var sum uint64
	for i := range m.Nodes {
		sum += m.Nodes[i].TxIssued[kind]
	}
	return sum
}

// TotalData sums data messages of kind k across nodes.
func (m *Machine) TotalData(kind int) uint64 {
	var sum uint64
	for i := range m.Nodes {
		sum += m.Nodes[i].DataSent[kind]
	}
	return sum
}

// Total folds a per-node accessor across nodes.
func (m *Machine) Total(f func(*Node) uint64) uint64 {
	var sum uint64
	for i := range m.Nodes {
		sum += f(&m.Nodes[i])
	}
	return sum
}

// SCFailureRate returns failed SCs / all SCs, or 0 with none.
func (m *Machine) SCFailureRate() float64 {
	ok := m.Total(func(n *Node) uint64 { return n.SCSuccess })
	fail := m.Total(func(n *Node) uint64 { return n.SCFail })
	if ok+fail == 0 {
		return 0
	}
	return float64(fail) / float64(ok+fail)
}
