package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"iqolb/internal/service"
)

// The benchmark runs each workload in a child of its own binary; under
// go test that binary is the test, so the test's main takes the child's
// command line too.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		if err := run(os.Args[1:]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload for 200 ms, untraced and traced, and
// holds the output to BENCHMARK.json. It asserts no timing.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	sameDefs(t, "end_to_end", endToEnd, spec.EndToEnd)
	sameDefs(t, "per_layer", perLayer, spec.PerLayer)
	if got, want := len(workloads()), len(spec.Workloads); got != want {
		t.Fatalf("the benchmark has %d workloads, BENCHMARK.json declares %d", got, want)
	}

	o := options{seed: 1, seconds: 0.2}
	if raceEnabled {
		o.seconds = 1 // the detector's start-up cost swallows a 13 ms repetition
	}
	for _, sw := range spec.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json declares workload %q, the benchmark has none", sw.Name)
		}
		m := &measured{}
		if err := measureEndToEnd(o, w, m); err != nil {
			t.Fatal(err)
		}
		if err := measureTraced(o, w, m); err != nil {
			t.Fatal(err)
		}
		if m.Failed != 0 {
			t.Errorf("%s: %d of %d ops failed", w.name, m.Failed, m.Attempted)
		}
		declared(t, w.name, spec.EndToEnd, m.EndToEnd)
		declared(t, w.name, spec.PerLayer, m.PerLayer)
		for _, e := range spec.EndToEnd {
			if v := m.EndToEnd[e.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, e.Name, v)
			}
		}
		if len(m.spans) == 0 || m.recorded < len(m.spans) {
			t.Errorf("%s: traced run wrote %d spans of %d recorded", w.name, len(m.spans), m.recorded)
		}
		if w.window > 0 { // a serving workload: its probes split the lock-step round trip
			l := m.PerLayer
			sum := l["wire.encode_ns_per_op"].Value + l["wire.decode_ns_per_op"].Value + l["core.acquire_ns"].Value + l["rt.transport_self_ns"].Value
			if total := l["rt.lockstep_ns"].Value; total <= 0 || math.Abs(sum-total) > 1e-6*total {
				t.Errorf("%s: wire + core + transport = %v ns, rt.lockstep_ns = %v ns", w.name, sum, total)
			}
		}
	}
}

func sameDefs(t *testing.T, what string, defs []metricDef, spec []specMetric) {
	t.Helper()
	if len(defs) != len(spec) {
		t.Fatalf("%s: the benchmark prints %d metrics, BENCHMARK.json declares %d", what, len(defs), len(spec))
	}
	for i, d := range defs {
		if d.name != spec[i].Name || d.unit != spec[i].Unit {
			t.Errorf("%s[%d]: the benchmark prints %s in %s, BENCHMARK.json declares %s in %s", what, i, d.name, d.unit, spec[i].Name, spec[i].Unit)
		}
		if !metricName.MatchString(d.name) {
			t.Errorf("%s: metric name %q is not made of letters, digits, _ . -", what, d.name)
		}
	}
}

// declared checks that stats holds each declared metric once, with its
// unit, and nothing else.
func declared(t *testing.T, workload string, spec []specMetric, stats map[string]stat) {
	t.Helper()
	if len(stats) != len(spec) {
		t.Errorf("%s: %d metrics reported, %d declared", workload, len(stats), len(spec))
	}
	for _, m := range spec {
		s, ok := stats[m.Name]
		if !ok || s.Unit != m.Unit || s.Unit == "" {
			t.Errorf("%s: metric %s reported=%t in unit %q, declared in %q", workload, m.Name, ok, s.Unit, m.Unit)
		}
	}
}

// doubleGrant is a backend with a seeded bug: every 50th acquire is
// granted without asking the service, so two clients hold one resource.
type doubleGrant struct {
	service.Backend
	n atomic.Uint64
}

func (d *doubleGrant) Acquire(resource, owner string, opt service.AcquireOptions) (service.Lease, error) {
	if n := d.n.Add(1); n%50 == 0 {
		return service.Lease{Resource: resource, Owner: owner, Token: 1<<40 + n, Fence: 1, Deadline: time.Now().Add(time.Minute)}, nil
	}
	return d.Backend.Acquire(resource, owner, opt)
}

// TestOutputChecksCatchDoubleGrant shows that the oracle is live: with the
// broken backend the run must fail its output checks, not report metrics.
func TestOutputChecksCatchDoubleGrant(t *testing.T) {
	if raceEnabled {
		t.Skip("the check is plain memory that only a lease holder touches: under a double grant the race detector reports it first")
	}
	w := workloadByName("hot_handoff")
	rc := runConfig{seed: 1, seconds: 0.2, conns: defaultConns(), reps: 1, rep: 200 * time.Millisecond,
		wrapBackend: func(b service.Backend) service.Backend { return &doubleGrant{Backend: b} }}
	stderr = &strings.Builder{} // the forged leases' releases fail; that is expected noise
	defer func() { stderr = os.Stderr }()
	out, err := runServing(w, rc, nil)
	if err == nil {
		t.Fatalf("a double grant passed the output checks: %+v", out.reps)
	}
	t.Log("caught:", err)
}

// TestOnlySutImportsTheProgram keeps the pinned surface in one file.
func TestOnlySutImportsTheProgram(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range files {
		if file == "sut.go" || strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "iqolb" || strings.HasPrefix(path, "iqolb/") {
				t.Errorf("%s imports %s: calls into the program go through sut.go", file, path)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := 1; v <= 100000; v++ {
		h.add(time.Duration(v))
	}
	for _, q := range []float64{0.5, 0.99} {
		if got, want := h.quantile(q), q*100000; math.Abs(got-want) > 0.02*want {
			t.Errorf("quantile(%v) = %v, want %v within 2%%", q, got, want)
		}
	}
	for _, v := range []uint64{0, 63, 64, 1000, 1 << 39, 1 << 45} {
		lo, hi := histBounds(histBucket(v))
		if c := math.Min(float64(v), 1<<histMaxBits-1); c < lo || c >= hi {
			t.Errorf("value %d falls in bucket [%v, %v)", v, lo, hi)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	setup := specMetric{Name: "setup_s", Better: "lower", Bound: 0.25}
	tight := func(v float64) stat { return stat{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 5} }
	for _, c := range []struct {
		m    specMetric
		a, b stat
		want string
	}{
		{lower, tight(100), tight(105), "ok"},
		{lower, tight(100), tight(115), "regressed"},
		{lower, tight(100), tight(50), "ok"},
		{higher, tight(100), tight(85), "regressed"},
		{higher, tight(100), tight(120), "ok"},
		{lower, tight(100), stat{Value: 115, Q1: 100, Q3: 130, N: 5}, "unresolved"},
		// setup_s has a floor of 50 ms: under it neither a doubling nor a
		// wide spread counts, over it the bound applies.
		{setup, tight(0.002), tight(0.004), "ok"},
		{setup, tight(0.002), stat{Value: 0.003, Q1: 0.002, Q3: 0.004, N: 9}, "ok"},
		{setup, tight(0.100), tight(0.160), "regressed"},
		{setup, tight(0.100), stat{Value: 0.160, Q1: 0.100, Q3: 0.220, N: 9}, "unresolved"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// TestCompareRefusesAnotherRunShape: two outputs compare only when they ran
// the same workloads, that is for the same time with the same C.
func TestCompareRefusesAnotherRunShape(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, h header) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, report{Header: h}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.json", header{Nproc: 2, C: 2, Seconds: 15, Seed: 1})
	if err := compare(io.Discard, a, write("b.json", header{Nproc: 2, C: 2, Seconds: 15, Seed: 2})); err != nil {
		t.Errorf("same shape, another seed: %v", err)
	}
	for _, h := range []header{{Nproc: 2, C: 2, Seconds: 5}, {Nproc: 4, C: 4, Seconds: 15}} {
		if err := compare(io.Discard, a, write("c.json", h)); err == nil {
			t.Errorf("compared a 15 s run at C=2 with %+v", h)
		}
	}
}
