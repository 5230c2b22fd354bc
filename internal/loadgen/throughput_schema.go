package loadgen

import (
	"fmt"
	"io"
	"time"

	"iqolb/internal/report"
	"iqolb/internal/stats"
)

// ThroughputResult is one open-loop run's measurements. Ops counts wire
// round trips (acquire and release each count one); op latency is
// client-observed issue → response. The configuration fields and the
// op schedule are seed-deterministic; the timing fields are wall-clock
// measurements and vary run to run (the byte-identical artifacts in
// this repo are the chaos campaigns, whose outcomes are scheduled, not
// timed).
type ThroughputResult struct {
	Stamp
	Clients      int    `json:"clients"`
	Window       int    `json:"window"`
	FlushDelayNS int64  `json:"flush_delay_ns"`
	OpsPerClient int    `json:"ops_per_client"`
	Resources    int    `json:"resources"`
	Seed         uint64 `json:"seed"`
	Ops          uint64 `json:"ops"`
	Errors       uint64 `json:"errors"`
	WallNS       int64  `json:"wall_ns"`
	// Throughput is completed wire ops per second of wall time.
	Throughput float64 `json:"throughput_ops_per_sec"`
	// Speedup is Throughput over the sweep's (window=1, flush-delay=0)
	// baseline row, filled in by NewThroughputFile when that row exists.
	Speedup float64 `json:"speedup_vs_baseline,omitempty"`
	// OpWait: client-side op issue → response, ns.
	OpWait stats.Histogram `json:"op_wait_ns"`
	OpP50  float64         `json:"op_p50_ns"`
	OpP99  float64         `json:"op_p99_ns"`
	OpP999 float64         `json:"op_p999_ns"`
}

// ThroughputFile is the on-disk artifact (BENCH_throughput.json).
type ThroughputFile struct {
	Header
	Results []ThroughputResult `json:"results"`
}

// NewThroughputFile wraps sweep results, computing each row's speedup
// against the (window=1, flush-delay=0) baseline with matching client
// count when the sweep includes one.
func NewThroughputFile(results []ThroughputResult) *ThroughputFile {
	base := make(map[int]float64) // clients → baseline ops/s
	for _, r := range results {
		if r.Window == 1 && r.FlushDelayNS == 0 && r.Throughput > 0 {
			base[r.Clients] = r.Throughput
		}
	}
	for i := range results {
		if b := base[results[i].Clients]; b > 0 {
			results[i].Speedup = results[i].Throughput / b
		}
	}
	return &ThroughputFile{newHeader(), results}
}

// WriteJSON writes the container as indented JSON.
func (f *ThroughputFile) WriteJSON(w io.Writer) error { return report.WriteJSON(w, f) }

// LoadThroughputFile reads and version-checks a throughput artifact.
func LoadThroughputFile(path string) (*ThroughputFile, error) {
	var f ThroughputFile
	return load(path, &f, &f.Header, &f.Results)
}

// RenderThroughput formats a sweep as the CLI's human-readable table.
func RenderThroughput(results []ThroughputResult) string {
	t := report.NewTable("Pipelined serving throughput (open loop, client-observed op latency, ns)",
		"clients", "window", "flush-delay", "ops", "ops/s", "p50", "p99", "p99.9", "speedup")
	for _, r := range results {
		speedup := "-"
		if r.Speedup > 0 {
			speedup = fmt.Sprintf("%.2fx", r.Speedup)
		}
		t.Row(r.Clients, r.Window, time.Duration(r.FlushDelayNS).String(), r.Ops,
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.0f", r.OpP50), fmt.Sprintf("%.0f", r.OpP99),
			fmt.Sprintf("%.0f", r.OpP999), speedup)
	}
	t.Note("window 1 + flush-delay 0 is the one-in-flight baseline; a flush delay turns on syscall coalescing and bounds its hold, which ends when the connection goes quiet (the paper's delay-insertion move on the transmit path)")
	return t.String()
}
