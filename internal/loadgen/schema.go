package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"iqolb/internal/report"
	"iqolb/internal/service"
	"iqolb/internal/stats"
)

// SchemaVersion stamps every loadgen artifact, container and row alike,
// following the harness artifact conventions: bump on any field
// addition, removal, or change of meaning.
const SchemaVersion = 1

// Header opens every loadgen artifact (BENCH_service.json,
// BENCH_adaptive.json).
type Header struct {
	SchemaVersion int    `json:"schema_version"`
	GoVersion     string `json:"go_version"`
	NumCPU        int    `json:"num_cpu"`
}

func newHeader() Header {
	return Header{SchemaVersion: SchemaVersion, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU()}
}

// Stamp opens every row of an artifact.
type Stamp struct {
	SchemaVersion int `json:"schema_version"`
}

func (s Stamp) stamp() int { return s.SchemaVersion }

// load reads the artifact at path into f and version-checks its header
// and each of its rows strictly.
func load[F any, R interface{ stamp() int }](path string, f *F, hdr *Header, rows *[]R) (*F, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, f); err != nil {
		return nil, fmt.Errorf("loadgen: %s: %w", path, err)
	}
	if hdr.SchemaVersion != SchemaVersion {
		return nil, fmt.Errorf("loadgen: %s: schema version %d, want %d", path, hdr.SchemaVersion, SchemaVersion)
	}
	for i, r := range *rows {
		if v := r.stamp(); v != SchemaVersion {
			return nil, fmt.Errorf("loadgen: %s: result %d has schema version %d, want %d", path, i, v, SchemaVersion)
		}
	}
	return f, nil
}

// ServerTotals folds the in-process server's counter snapshot into a
// result (absent when the run targeted an external -addr).
type ServerTotals struct {
	Policy   string           `json:"policy"`
	Counters service.Counters `json:"counters"`
	// DegradedShards counts shards the starvation watchdog downgraded.
	DegradedShards int `json:"degraded_shards"`
	// ServerGrantP99NS is the server-side enqueue→grant p99, for
	// separating queueing delay from network time.
	ServerGrantP99NS float64 `json:"server_grant_p99_ns"`
}

// Result is one load run's measurements. Grant latency is
// client-observed: acquire issue → lease granted, over real TCP.
type Result struct {
	Stamp
	Bench      string `json:"bench"`
	Lock       string `json:"lock,omitempty"`
	Policy     string `json:"policy,omitempty"`
	Clients    int    `json:"clients"`
	Shards     int    `json:"shards,omitempty"`
	QueueDepth int    `json:"queue_depth,omitempty"`
	Seed       uint64 `json:"seed,omitempty"`
	Grants     uint64 `json:"grants"`
	Sheds      uint64 `json:"sheds"`
	Timeouts   uint64 `json:"timeouts"`
	Errors     uint64 `json:"errors"`
	WallNS     int64  `json:"wall_ns"`
	// Throughput is granted leases per second of wall time.
	Throughput float64 `json:"throughput_grants_per_sec"`
	// Fairness is Jain's index over per-client grant counts.
	Fairness     float64  `json:"fairness_jain"`
	PerClientOps []uint64 `json:"per_client_ops"`
	// GrantWait: client-side acquire → granted, ns.
	GrantWait stats.Histogram `json:"grant_wait_ns"`
	GrantP50  float64         `json:"grant_p50_ns"`
	GrantP99  float64         `json:"grant_p99_ns"`
	GrantP999 float64         `json:"grant_p999_ns"`
	Server    *ServerTotals   `json:"server,omitempty"`
}

// File is the on-disk artifact (BENCH_service.json).
type File struct {
	Header
	Results []Result `json:"results"`
}

// NewFile wraps results in a schema-versioned container.
func NewFile(results []Result) *File { return &File{newHeader(), results} }

// WriteJSON writes the container as indented JSON.
func (f *File) WriteJSON(w io.Writer) error { return report.WriteJSON(w, f) }

// LoadFile reads and version-checks a results file.
func LoadFile(path string) (*File, error) {
	var f File
	return load(path, &f, &f.Header, &f.Results)
}

// Render formats results as the CLI's human-readable table.
func Render(results []Result) string {
	t := report.NewTable("Lock-lease service load (client-observed grant latency, ns)",
		"bench", "clients", "policy", "lock", "grants", "grants/s", "p50", "p99", "p99.9", "sheds", "fairness")
	for _, r := range results {
		t.Row(r.Bench, r.Clients, r.Policy, r.Lock, r.Grants,
			fmt.Sprintf("%.0f", r.Throughput),
			fmt.Sprintf("%.0f", r.GrantP50), fmt.Sprintf("%.0f", r.GrantP99),
			fmt.Sprintf("%.0f", r.GrantP999),
			r.Sheds,
			fmt.Sprintf("%.3f", r.Fairness))
	}
	t.Note("handoff hands the lease releaser→waiter in one transfer; broadcast wakes every waiter to re-contend")
	return t.String()
}
