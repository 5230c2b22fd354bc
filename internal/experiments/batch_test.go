package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// squareJobs returns n jobs; job i reports i*i cycles.
func squareJobs(n int) []job {
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = job{
			label: fmt.Sprintf("sq-%d", i),
			run:   func() (Result, error) { return Result{Cycles: uint64(i * i)}, nil },
		}
	}
	return jobs
}

// failingJobs returns n jobs; job i fails with the error fail(i) returns,
// or reports i*i cycles when it is nil.
func failingJobs(n int, fail func(i int) error) []job {
	jobs := squareJobs(n)
	for i := range jobs {
		ok := jobs[i].run
		jobs[i].run = func() (Result, error) {
			if err := fail(i); err != nil {
				return Result{}, err
			}
			return ok()
		}
	}
	return jobs
}

// Results come back in job order regardless of worker count, and the
// manifest accounts for every job.
func TestRunDeterministicOrder(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		res, m, err := runBatch(Options{Jobs: workers}, squareJobs(33))
		if err != nil {
			t.Fatal(err)
		}
		var want float64
		for i, r := range res {
			if r.Cycles != uint64(i*i) {
				t.Fatalf("workers=%d: res[%d] = %d, want %d", workers, i, r.Cycles, i*i)
			}
			if m.Records[i].Status != StatusOK {
				t.Fatalf("workers=%d: record %d status %s", workers, i, m.Records[i].Status)
			}
			want += float64(i * i)
		}
		if m.Jobs != 33 || m.Errors != 0 || m.Skipped != 0 || m.SimCycles != want {
			t.Fatalf("manifest: %+v", m)
		}
		if m.Workers != workers {
			t.Fatalf("manifest workers = %d", m.Workers)
		}
	}
}

// A failing job surfaces its error (wrapped with the label), later jobs
// are skipped, and the manifest records both.
func TestRunErrorSkipsRemaining(t *testing.T) {
	boom := errors.New("boom")
	jobs := failingJobs(20, func(i int) error {
		if i == 3 {
			return boom
		}
		return nil
	})
	_, m, err := runBatch(Options{Jobs: 1}, jobs)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if !strings.Contains(err.Error(), "sq-3") {
		t.Fatalf("error not labeled: %v", err)
	}
	if m.Errors != 1 || m.Skipped != 16 {
		t.Fatalf("manifest: errors=%d skipped=%d", m.Errors, m.Skipped)
	}
}

// Artifacts land on disk: one JSON per result, named by batch position,
// plus manifest.json — also when a batch holds the same spec twice.
func TestRunArtifacts(t *testing.T) {
	dirNames := func(dir string) []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		return names
	}

	dir := filepath.Join(t.TempDir(), "jobs")
	if _, _, err := runBatch(Options{Jobs: 2, ArtifactDir: dir}, squareJobs(3)); err != nil {
		t.Fatal(err)
	}
	want := "000-sq-0.json 001-sq-1.json 002-sq-2.json manifest.json"
	if got := strings.Join(dirNames(dir), " "); got != want {
		t.Fatalf("artifacts = %s, want %s", got, want)
	}

	dir = filepath.Join(t.TempDir(), "specs")
	spec := Spec{Bench: "nullcs", System: "iqolb", Procs: 2, Scale: 64}
	if _, _, err := RunSpecs(Options{Jobs: 2, ArtifactDir: dir}, []Spec{spec, spec}); err != nil {
		t.Fatal(err)
	}
	want = "000-nullcs_iqolb_p2.json 001-nullcs_iqolb_p2.json manifest.json"
	if got := strings.Join(dirNames(dir), " "); got != want {
		t.Fatalf("artifacts = %s, want %s", got, want)
	}
}

// Progress lines stream to the writer and count up to the total.
func TestProgressStream(t *testing.T) {
	var sb strings.Builder
	if _, _, err := runBatch(Options{Jobs: 2, Progress: &sb}, squareJobs(5)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("want 5 progress lines, got %d:\n%s", len(lines), sb.String())
	}
	if !strings.Contains(lines[4], "5/5") || !strings.Contains(lines[4], "done") {
		t.Fatalf("final line: %s", lines[4])
	}
}

func TestSanitizeLabel(t *testing.T) {
	if got := sanitizeLabel("a b/c:d"); got != "a_b_c_d" {
		t.Fatalf("sanitize = %q", got)
	}
	if got := sanitizeLabel(""); got != "job" {
		t.Fatalf("empty label = %q", got)
	}
}

// A panicking job becomes a StatusError record instead of crashing the
// worker pool, and under KeepGoing the other jobs still complete.
func TestRunRecoversPanic(t *testing.T) {
	jobs := failingJobs(8, func(i int) error {
		if i == 2 {
			panic("injected panic")
		}
		return nil
	})
	res, m, err := runBatch(Options{Jobs: 2, KeepGoing: true}, jobs)
	if err == nil || !strings.Contains(err.Error(), "panic: injected panic") {
		t.Fatalf("err = %v; want the recovered panic", err)
	}
	if m.Errors != 1 || m.Skipped != 0 {
		t.Fatalf("manifest: errors=%d skipped=%d", m.Errors, m.Skipped)
	}
	if m.Records[2].Status != StatusError || !strings.Contains(m.Records[2].Error, "injected panic") {
		t.Fatalf("record 2: %+v", m.Records[2])
	}
	for i, r := range res {
		if i != 2 && r.Cycles != uint64(i*i) {
			t.Fatalf("KeepGoing lost result %d: %+v", i, r)
		}
	}
}

// KeepGoing runs every job despite failures and the manifest doubles as
// the failure manifest: no skips, each failure labeled.
func TestKeepGoingPartialResults(t *testing.T) {
	jobs := failingJobs(10, func(i int) error {
		if i%3 == 0 {
			return fmt.Errorf("fail-%d", i)
		}
		return nil
	})
	res, m, err := runBatch(Options{Jobs: 4, KeepGoing: true}, jobs)
	if err == nil {
		t.Fatal("KeepGoing hid the failures")
	}
	if m.Skipped != 0 || m.Errors != 4 {
		t.Fatalf("manifest: skipped=%d errors=%d; want 0 and 4", m.Skipped, m.Errors)
	}
	for i, r := range res {
		if i%3 != 0 && r.Cycles != uint64(i*i) {
			t.Fatalf("partial result %d missing: %+v", i, r)
		}
	}
	for i, rec := range m.Records {
		want := StatusOK
		if i%3 == 0 {
			want = StatusError
		}
		if rec.Status != want {
			t.Fatalf("record %d status %s, want %s", i, rec.Status, want)
		}
	}
}
