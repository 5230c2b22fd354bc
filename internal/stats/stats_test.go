package stats

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.String() != "n=0" {
		t.Fatal("empty histogram misbehaves")
	}
	for _, v := range []uint64{1, 2, 3, 10, 100} {
		h.Add(v)
	}
	if h.Count != 5 || h.Min != 1 || h.Max != 100 || h.Sum != 116 {
		t.Fatalf("histogram stats wrong: %+v", h)
	}
	if h.Mean() != 116.0/5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if !strings.Contains(h.String(), "n=5") {
		t.Fatalf("string: %s", h.String())
	}
}

// Property: Count equals the number of Adds, Sum equals their total, and
// Min/Max bound every sample.
func TestPropertyHistogram(t *testing.T) {
	f := func(vals []uint16) bool {
		var h Histogram
		var sum uint64
		for _, v := range vals {
			h.Add(uint64(v))
			sum += uint64(v)
		}
		if h.Count != uint64(len(vals)) || h.Sum != sum {
			return false
		}
		for _, v := range vals {
			if uint64(v) < h.Min || uint64(v) > h.Max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentile(t *testing.T) {
	var h Histogram
	if h.Percentile(50) != 0 {
		t.Fatal("empty percentile not zero")
	}
	// 100 identical samples: every percentile collapses to the sample.
	for i := 0; i < 100; i++ {
		h.Add(64)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got := h.Percentile(p); got != 64 {
			t.Fatalf("Percentile(%v) = %v, want 64", p, got)
		}
	}
	// A spread: 90 samples in [2,3] (bucket 1), 10 samples at 1024.
	h = Histogram{}
	for i := 0; i < 90; i++ {
		h.Add(2)
	}
	for i := 0; i < 10; i++ {
		h.Add(1024)
	}
	if p0, p100 := h.Percentile(0), h.Percentile(100); p0 != 2 || p100 != 1024 {
		t.Fatalf("extremes = %v, %v", p0, p100)
	}
	if p50 := h.Percentile(50); p50 < 2 || p50 > 3 {
		t.Fatalf("p50 = %v, want within bucket [2,3]", p50)
	}
	if p99 := h.Percentile(99); p99 != 1024 {
		t.Fatalf("p99 = %v, want 1024 (clamped to Max)", p99)
	}
	// Monotone in p.
	prev := -1.0
	for p := 0.0; p <= 100; p += 5 {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("Percentile not monotone at p=%v: %v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestHistogramJSONRoundTrip(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{0, 1, 2, 7, 100, 5000} {
		h.Add(v)
	}
	data, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	var back Histogram
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, back) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", h, back)
	}
	// Marshal of the round-tripped value must be byte-identical (cache
	// hits must reproduce the serial output exactly).
	data2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatalf("re-marshal differs:\n%s\n%s", data, data2)
	}
	if back.Percentile(50) != h.Percentile(50) {
		t.Fatal("percentile differs after round trip")
	}
}

func TestMachineTotals(t *testing.T) {
	m := NewMachine(3)
	m.Nodes[0].TxIssued[1] = 5
	m.Nodes[2].TxIssued[1] = 7
	if m.TotalTx(1) != 12 {
		t.Fatalf("TotalTx = %d, want 12", m.TotalTx(1))
	}
	m.Nodes[1].DataSent[2] = 4
	if m.TotalData(2) != 4 {
		t.Fatalf("TotalData = %d", m.TotalData(2))
	}
	m.Nodes[0].SCSuccess, m.Nodes[0].SCFail = 3, 1
	m.Nodes[1].SCFail = 1
	if got := m.SCFailureRate(); got != 0.4 {
		t.Fatalf("SCFailureRate = %v, want 0.4", got)
	}
	if m.Total(func(n *Node) uint64 { return n.SCSuccess }) != 3 {
		t.Fatal("Total accessor wrong")
	}
}

func TestSCFailureRateEmpty(t *testing.T) {
	if NewMachine(2).SCFailureRate() != 0 {
		t.Fatal("empty rate not zero")
	}
}

// mergeEquals checks that h is sample-for-sample identical to a histogram
// built by Adding all of vals directly.
func mergeEquals(t *testing.T, h *Histogram, vals []uint64) {
	t.Helper()
	var want Histogram
	for _, v := range vals {
		want.Add(v)
	}
	hj, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(&want)
	if err != nil {
		t.Fatal(err)
	}
	if string(hj) != string(wj) {
		t.Fatalf("merged histogram %s, want %s", hj, wj)
	}
}

func TestHistogramMergeEmpty(t *testing.T) {
	var h Histogram
	h.Merge(nil)
	h.Merge(&Histogram{})
	if h.Count != 0 {
		t.Fatalf("merging empties produced %d samples", h.Count)
	}

	// Empty receiver adopts the other side wholesale, including Min.
	var o Histogram
	for _, v := range []uint64{7, 900} {
		o.Add(v)
	}
	h.Merge(&o)
	mergeEquals(t, &h, []uint64{7, 900})

	// Merging an empty histogram into a populated one changes nothing
	// (in particular it must not clobber Min with the zero value).
	h.Merge(&Histogram{})
	mergeEquals(t, &h, []uint64{7, 900})
}

func TestHistogramMergeDisjointBuckets(t *testing.T) {
	var lo, hi Histogram
	loVals := []uint64{1, 2, 3}          // buckets 0–1
	hiVals := []uint64{1 << 10, 1 << 12} // buckets 10, 12
	for _, v := range loVals {
		lo.Add(v)
	}
	for _, v := range hiVals {
		hi.Add(v)
	}
	lo.Merge(&hi)
	mergeEquals(t, &lo, append(append([]uint64{}, loVals...), hiVals...))
	if lo.Min != 1 || lo.Max != 1<<12 {
		t.Fatalf("min/max = %d/%d", lo.Min, lo.Max)
	}
	// The source is unchanged.
	mergeEquals(t, &hi, hiVals)
}

func TestHistogramMergeOverlappingBuckets(t *testing.T) {
	var a, b Histogram
	aVals := []uint64{4, 5, 64, 100}
	bVals := []uint64{5, 6, 7, 80, 5000}
	for _, v := range aVals {
		a.Add(v)
	}
	for _, v := range bVals {
		b.Add(v)
	}
	a.Merge(&b)
	all := append(append([]uint64{}, aVals...), bVals...)
	mergeEquals(t, &a, all)
	// Percentiles of the merge match a directly-built histogram too.
	var want Histogram
	for _, v := range all {
		want.Add(v)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got, w := a.Percentile(p), want.Percentile(p); got != w {
			t.Fatalf("p%.0f = %v, want %v", p, got, w)
		}
	}
}

func TestHistogramMergeSelfDoubling(t *testing.T) {
	var h Histogram
	for _, v := range []uint64{3, 3, 700} {
		h.Add(v)
	}
	h.Merge(&h)
	mergeEquals(t, &h, []uint64{3, 3, 700, 3, 3, 700})
}

// TestJain pins the fairness index.
func TestJain(t *testing.T) {
	if f := Jain([]uint64{10, 10, 10, 10}); f != 1 {
		t.Fatalf("even shares: %f", f)
	}
	if f := Jain([]uint64{40, 0, 0, 0}); f != 0.25 {
		t.Fatalf("single winner: %f", f)
	}
	if f := Jain(nil); f != 0 {
		t.Fatalf("empty: %f", f)
	}
	if f := Jain([]uint64{0, 0}); f != 0 {
		t.Fatalf("all-zero: %f", f)
	}
}
