package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"iqolb/internal/obs"
)

// ManifestSchemaVersion identifies the serialized manifest layout. Bump
// it whenever a Manifest or Record field is added, removed, or changes
// meaning; the golden-file test pins the current shape.
//
// Version 3: the result cache is gone — cache_hits, cache_misses, key and
// attempts are dropped, and a completed job's status is "ok".
const ManifestSchemaVersion = 3

// Job outcome statuses recorded in the manifest.
const (
	StatusOK      = "ok"      // the job ran and returned a result
	StatusError   = "error"   // the job returned an error or panicked
	StatusSkipped = "skipped" // abandoned after an earlier failure
)

// Record is one job's entry in the manifest.
type Record struct {
	Label   string             `json:"label"`
	Status  string             `json:"status"`
	WallMS  float64            `json:"wall_ms"`
	Error   string             `json:"error,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Snapshot carries a traced job's observability snapshot.
	Snapshot *obs.Snapshot `json:"snapshot,omitempty"`
}

// Manifest aggregates one batch: counts, wall-clock and total simulated
// cycles (the sum of each job's "cycles" metric).
type Manifest struct {
	SchemaVersion int      `json:"schema_version"`
	Workers       int      `json:"workers"`
	Jobs          int      `json:"jobs"`
	Errors        int      `json:"errors"`
	Skipped       int      `json:"skipped"`
	WallMS        float64  `json:"wall_ms"`
	SimCycles     float64  `json:"sim_cycles"`
	Records       []Record `json:"records"`
}

// job is one unit of batch work. run must be safe to call concurrently
// with other jobs' run functions.
type job struct {
	label string
	run   func() (Result, error)
}

// runBatch fans the jobs out across a bounded worker pool and returns
// the results in job order — output ordering is independent of
// completion order — along with the batch manifest. On a job failure the
// remaining queued jobs are skipped (or, under Options.KeepGoing, still
// run), the manifest records every outcome, and the returned error is
// the first failure in job order, wrapped with its label. The manifest
// is returned even on error; under KeepGoing so are the results of every
// succeeding job.
func runBatch(opt Options, jobs []job) ([]Result, *Manifest, error) {
	start := time.Now()
	workers := opt.Jobs
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	results := make([]Result, len(jobs))
	records := make([]Record, len(jobs))
	errs := make([]error, len(jobs))

	var (
		mu     sync.Mutex
		failed bool
		done   int
	)
	idxCh := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idxCh {
				mu.Lock()
				skip := failed && !opt.KeepGoing
				mu.Unlock()
				if skip {
					records[i] = Record{Label: jobs[i].label, Status: StatusSkipped}
					continue
				}
				rec, res, err := runOne(jobs[i])
				results[i], records[i], errs[i] = res, rec, err
				mu.Lock()
				if err != nil {
					failed = true
				}
				done++
				reportProgress(opt.Progress, start, done, len(jobs), rec)
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	m := &Manifest{
		SchemaVersion: ManifestSchemaVersion,
		Workers:       workers,
		Jobs:          len(records),
		WallMS:        msSince(start),
		Records:       records,
	}
	for _, r := range records {
		switch r.Status {
		case StatusError:
			m.Errors++
		case StatusSkipped:
			m.Skipped++
		}
		m.SimCycles += r.Metrics["cycles"]
	}
	var firstErr error
	for i, err := range errs {
		if err != nil {
			firstErr = fmt.Errorf("%s: %w", jobs[i].label, err)
			break
		}
	}
	if opt.ArtifactDir != "" {
		if err := writeArtifacts(opt.ArtifactDir, jobs, results, m); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return results, m, firstErr
}

// runOne runs a single job and records its outcome.
func runOne(j job) (Record, Result, error) {
	t0 := time.Now()
	res, err := runGuarded(j.run)
	rec := Record{Label: j.label, WallMS: msSince(t0)}
	if err != nil {
		rec.Status, rec.Error = StatusError, err.Error()
		return rec, Result{}, err
	}
	rec.Status, rec.Metrics, rec.Snapshot = StatusOK, resultMetrics(res), res.Obs
	return rec, res, nil
}

// runGuarded calls run, converting a panic into an error so that one
// bad job fails its record instead of crashing the worker pool.
func runGuarded(run func() (Result, error)) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return run()
}

// resultMetrics extracts the manifest's scalar measurements from a
// result.
func resultMetrics(r Result) map[string]float64 {
	m := map[string]float64{
		"cycles":           float64(r.Cycles),
		"bus_transactions": float64(r.BusTransactions),
	}
	if r.Stats != nil {
		m["lock_handoff_p50"] = r.Stats.LockHandoff.Percentile(50)
		m["lock_handoff_p99"] = r.Stats.LockHandoff.Percentile(99)
	}
	return m
}

// reportProgress streams one completed/total line with an ETA estimate;
// a nil w is silent. Callers hold the batch mutex.
func reportProgress(w io.Writer, start time.Time, done, total int, rec Record) {
	if w == nil {
		return
	}
	eta := "done"
	if done < total {
		per := time.Since(start) / time.Duration(done)
		eta = (per * time.Duration(total-done)).Round(100 * time.Millisecond).String()
	}
	status := rec.Status
	if rec.Status == StatusOK {
		status = fmt.Sprintf("ran %.0f ms", rec.WallMS)
	}
	fmt.Fprintf(w, "batch: %d/%d eta %s  %s [%s]\n", done, total, eta, rec.Label, status)
}

// writeArtifacts emits one JSON file per successful job result, named
// NNN-<label>.json by batch position, plus the batch manifest under dir.
func writeArtifacts(dir string, jobs []job, results []Result, m *Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, rec := range m.Records {
		if rec.Status != StatusOK {
			continue
		}
		name := fmt.Sprintf("%03d-%s.json", i, sanitizeLabel(jobs[i].label))
		if err := writeJSON(filepath.Join(dir, name), results[i]); err != nil {
			return err
		}
	}
	return writeJSON(filepath.Join(dir, "manifest.json"), m)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// sanitizeLabel maps a job label to a safe file-name stem.
func sanitizeLabel(label string) string {
	f := func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}
	s := strings.Map(f, label)
	if s == "" {
		s = "job"
	}
	return s
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}
