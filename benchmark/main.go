// Command benchmark is the repository's one benchmark: six named
// workloads, end-to-end metrics with bounds, and a traced run that gives
// per-layer metrics measured from outside the program. README.md has the
// tables; BENCHMARK.json at the repository's root declares the contract.
//
//	benchmark -seed N -o out.json [-trace 1]     every workload
//	benchmark -workload NAME -seed N -seconds S -trace 0|1
//	                                             one workload; last line is the result as JSON
//	benchmark -compare a.json b.json             apply the bounds to two outputs
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// metricDef names a metric and its unit. These two tables are the
// benchmark's output; BENCHMARK.json declares the same names, and the
// test holds the two together.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"cpu_us_per_op", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer is printed in full for every workload; a layer that did no
// work on a workload reads 0 there.
var perLayer = []metricDef{
	{"wire.encode_ns_per_op", "ns"}, {"wire.decode_ns_per_op", "ns"}, {"wire.allocs_per_op", "count"}, {"wire.bytes_per_op", "B"},
	{"core.acquire_ns", "ns"}, {"core.release_ns", "ns"}, {"core.handoff_ratio", "ratio"}, {"core.immediate_ratio", "ratio"},
	{"core.grant_wait_p50_us", "us"}, {"core.grant_wait_p99_us", "us"}, {"core.hold_p50_us", "us"}, {"core.sheds", "count"}, {"core.timeouts", "count"},
	{"rt.lockstep_ns", "ns"}, {"rt.transport_self_ns", "ns"}, {"rt.allocs_per_op", "count"},
	{"client.writes_per_op", "count"}, {"client.reads_per_op", "count"}, {"server.writes_per_op", "count"}, {"server.reads_per_op", "count"},
	{"client.acquire_p50_us", "us"}, {"client.acquire_p99_us", "us"}, {"client.release_p50_us", "us"},
	{"pipe.frames_per_write.client", "count"}, {"pipe.frames_per_write.server", "count"}, {"pipe.bytes_per_write.server", "B"}, {"pipe.allocs_per_op", "count"},
	{"coalesce.idle_hold_us", "us"},
	{"locks.ops_per_s.tts", "1/s"}, {"locks.ops_per_s.ticket", "1/s"}, {"locks.ops_per_s.mcs", "1/s"}, {"locks.ops_per_s.clh", "1/s"}, {"locks.ops_per_s.adaptive", "1/s"},
	{"locks.uncontended_pair_ns", "ns"}, {"locks.handoff_p50_ns", "ns"}, {"locks.lock_p99_ns", "ns"}, {"locks.jain_fairness", "ratio"},
	{"sim.cycles.tts", "cycles"}, {"sim.cycles.qolb", "cycles"}, {"sim.cycles.iqolb", "cycles"},
	{"sim.host_s.tts", "s"}, {"sim.host_s.qolb", "s"}, {"sim.host_s.iqolb", "s"},
	{"sim.host_ns_per_op.tts", "ns"}, {"sim.host_ns_per_op.qolb", "ns"}, {"sim.host_ns_per_op.iqolb", "ns"},
	{"sim.bus_transactions.tts", "count"}, {"sim.bus_transactions.qolb", "count"}, {"sim.bus_transactions.iqolb", "count"},
	{"sim.tearoffs", "count"}, {"sim.handoff_mean_cycles", "cycles"}, {"sim.host_ns_per_bus_tx", "ns"},
	{"sim.kcycles_per_s", "kcycles/s"}, {"sim.iqolb_vs_tts_speedup", "ratio"},
	{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	{"gen.late_p99_us", "us"}, {"gen.slo_miss_frac", "ratio"}, {"trace.overhead_frac", "ratio"},
}

const (
	// runSeconds is the measured time of one workload, BENCHMARK.json's
	// run_seconds.
	runSeconds = 20
	// setupProbes is how many extra children only set up and exit, so
	// that setup_s is a median of setupProbes+1 process starts.
	setupProbes = 16
	minRep      = 40 * time.Millisecond
	t0Env       = "BENCH_T0"
)

var stderr io.Writer = os.Stderr

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// options are the command line.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     int
	out       string
	child     bool
	reps      int
	setupOnly bool
	compare   bool
}

func run(args []string) error {
	var o options
	var smoke bool
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and print its result as one JSON line")
	fs.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "measured time per workload")
	fs.IntVar(&o.trace, "trace", 0, "1: the traced run, which gives the per-layer metrics")
	fs.StringVar(&o.out, "o", "", "with every workload: write the output here, and the spans next to it as trace.json")
	fs.BoolVar(&smoke, "smoke", false, "run every workload for 200 ms")
	fs.BoolVar(&o.compare, "compare", false, "compare two outputs: -compare a.json b.json")
	fs.BoolVar(&o.child, "child", false, "internal: run the workload in this process")
	fs.IntVar(&o.reps, "reps", 0, "internal: with -child, run this many of the workload's repetitions")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: with -child, stop after set-up")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if smoke {
		o.seconds = 0.2
	}
	if o.compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two output files")
		}
		return compare(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || o.trace < 0 || o.trace > 1 {
		return errors.New("need -seconds > 0 and -trace 0 or 1")
	}
	switch {
	case o.child:
		return childMain(o)
	case o.workload != "":
		return driverMain(o)
	}
	return allMain(o)
}

// ---- child: one workload in this process -------------------------------

// childResult is what a child prints for its parent.
type childResult struct {
	SetupS        float64              `json:"setup_s"`
	PeakRSSMB     float64              `json:"peak_rss_mb"`
	Reps          []map[string]float64 `json:"reps,omitempty"`
	Attempted     uint64               `json:"attempted"`
	Failed        uint64               `json:"failed"`
	Layer         map[string]float64   `json:"layer,omitempty"`
	Spans         []span               `json:"spans,omitempty"`
	SpansRecorded int                  `json:"spans_recorded,omitempty"`
}

func childMain(o options) error {
	t0 := time.Now()
	if ns, err := strconv.ParseInt(os.Getenv(t0Env), 10, 64); err == nil {
		t0 = time.Unix(0, ns)
	}
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	c := defaultConns()
	// More load-generating threads or connections than processors would
	// measure the host's scheduler, not the program.
	if n := runtime.NumCPU(); w.gomaxprocs(c) > n || w.connections(c) > n {
		return fmt.Errorf("refusing to run %s with GOMAXPROCS %d and %d connections on %d processors", w.name, w.gomaxprocs(c), w.connections(c), n)
	}
	runtime.GOMAXPROCS(w.gomaxprocs(c))
	if w.gomaxprocs(c) == 1 {
		if err := bindToOneCPU(); err != nil {
			return err
		}
	}
	// A repetition is no shorter than minRep; a shorter run has fewer of
	// them. In 13 ms, a fifteenth of the smoke test's run, a stall of the
	// host leaves a repetition without a single completed op.
	most := max(int(o.seconds/minRep.Seconds()), 1)
	rc := runConfig{seed: o.seed, seconds: o.seconds, conns: c, reps: min(w.reps, most), setupOnly: o.setupOnly,
		rep: time.Duration(o.seconds / float64(min(w.reps, most)) * float64(time.Second))}
	if o.reps > 0 {
		rc.reps = min(o.reps, most)
	}
	var res *childResult
	var err error
	if o.trace == 1 {
		res, err = runTraced(w, rc)
	} else {
		var out *runOutput
		if out, err = w.run(w, rc, nil); err == nil {
			res = &childResult{Reps: out.reps, Attempted: out.attempted, Failed: out.failed, SetupS: out.ready.Sub(t0).Seconds()}
		}
	}
	if err != nil {
		return err
	}
	res.PeakRSSMB = peakRSSMB()
	return json.NewEncoder(os.Stdout).Encode(res)
}

// runTraced runs one repetition untraced and one traced, then the probes.
// The difference between the two repetitions is the tracing overhead.
func runTraced(w *workload, rc runConfig) (*childResult, error) {
	rc.reps = 1
	plain, err := w.run(w, rc, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	before := readMemMark()
	traced, err := w.run(w, rc, tr)
	if err != nil {
		return nil, err
	}
	m := traced.layer
	if _, ok := m["go.gc_cycles"]; !ok {
		after := readMemMark()
		m["go.gc_cycles"] = float64(after.gcCycles - before.gcCycles)
		m["go.gc_pause_ms"] = float64(after.gcPause-before.gcPause) / 1e6
	}
	m["trace.overhead_frac"] = 1 - traced.reps[0]["ops_per_s"]/plain.reps[0]["ops_per_s"]
	if w.probes != nil {
		id := tr.begin("probes "+w.name, 0)
		err := w.probes(w, rc, tr, id, m)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return &childResult{
		Attempted: traced.attempted, Failed: traced.failed, Layer: m,
		Spans: tr.dump(), SpansRecorded: len(tr.spans) + 3*len(tr.ops),
	}, nil
}

// ---- parent: measure a workload in fresh children ----------------------

// stat is one metric of one workload: the median over its samples, with
// the quartiles and sample count that say how far to trust it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

func newStat(unit string, samples []float64) stat {
	q1, med, q3 := quartiles(samples)
	return stat{Value: med, Unit: unit, Q1: q1, Q3: q3, N: len(samples)}
}

// spawn runs one child and decodes what it printed. The child takes the
// moment just before its process is started from the environment.
func spawn(o options, name string, trace, reps int, setupOnly bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "-workload", name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-reps", strconv.Itoa(reps)}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), t0Env+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	var res childResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("workload %s: child output: %w", name, err)
	}
	return &res, nil
}

// measured is one workload's result: end-to-end from the untraced run,
// per-layer from the traced one.
type measured struct {
	Name      string          `json:"name"`
	Loop      string          `json:"loop"`
	Load      string          `json:"load"`
	Procs     int             `json:"gomaxprocs"`
	Conns     int             `json:"connections"` // 0: the workload opens no socket
	Attempted uint64          `json:"attempted"`
	Failed    uint64          `json:"failed"`
	EndToEnd  map[string]stat `json:"end_to_end,omitempty"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
	spans     []span
	recorded  int
}

// measureEndToEnd runs the workload untraced in a fresh child (or a few,
// see workload.children), so that memory, the GC's state and set-up time
// start clean, and a few more children that only set up.
func measureEndToEnd(o options, w *workload, m *measured) error {
	var setups, rss []float64
	var reps []map[string]float64
	children := max(w.children, 1)
	for i := 0; i < children; i++ {
		res, err := spawn(o, w.name, 0, w.reps/children, false)
		if err != nil {
			return err
		}
		setups, rss, reps = append(setups, res.SetupS), append(rss, res.PeakRSSMB), append(reps, res.Reps...)
		m.Attempted += res.Attempted
		m.Failed += res.Failed
	}
	for i := 0; i < setupProbes; i++ {
		p, err := spawn(o, w.name, 0, 0, true)
		if err != nil {
			return err
		}
		setups = append(setups, p.SetupS)
	}
	m.EndToEnd = map[string]stat{}
	for _, d := range endToEnd {
		var samples []float64
		switch d.name {
		case "setup_s":
			samples = setups
		case "peak_rss_mb":
			samples = rss
		default:
			for _, rep := range reps {
				samples = append(samples, rep[d.name])
			}
		}
		m.EndToEnd[d.name] = newStat(d.unit, samples)
	}
	return nil
}

func measureTraced(o options, w *workload, m *measured) error {
	res, err := spawn(o, w.name, 1, 0, false)
	if err != nil {
		return err
	}
	if m.EndToEnd == nil {
		m.Attempted, m.Failed = res.Attempted, res.Failed
	}
	m.PerLayer = map[string]stat{}
	for _, d := range perLayer {
		m.PerLayer[d.name] = newStat(d.unit, []float64{res.Layer[d.name]})
	}
	m.spans, m.recorded = res.Spans, res.SpansRecorded
	return nil
}

// driverMain is the form the benchmark's driver calls: one workload, and
// as the last line of standard output the result as one JSON object.
func driverMain(o options) error {
	w := workloadByName(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	m := &measured{}
	measure := measureEndToEnd
	if o.trace == 1 {
		measure = measureTraced
	}
	if err := measure(o, w, m); err != nil {
		return err
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, stats := range []map[string]stat{m.EndToEnd, m.PerLayer} { // one of the two is set
		for name, s := range stats {
			metrics[name] = value{s.Value, s.Unit}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(map[string]any{
		"correct": true, "attempted": max(m.Attempted, 1), "failed": m.Failed, "metrics": metrics,
	})
}

// ---- every workload -----------------------------------------------------

// header says where and how the numbers were taken.
type header struct {
	Nproc int `json:"nproc"`
	// C is min(nproc, 4): the most threads and connections a workload
	// uses. Each workload's section says what it runs with.
	C         int     `json:"c"`
	GoVersion string  `json:"go_version"`
	Kernel    string  `json:"kernel"`
	Commit    string  `json:"commit"`
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Loopback  bool    `json:"loopback"`
}

// report is the output file of a run of every workload.
type report struct {
	Header    header      `json:"header"`
	Workloads []*measured `json:"workloads"`
}

func newHeader(o options) header {
	h := header{Nproc: runtime.NumCPU(), C: defaultConns(), GoVersion: runtime.Version(),
		Kernel: "unknown", Commit: "unknown", Seed: o.seed, Seconds: o.seconds, Loopback: true}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func allMain(o options) error {
	rep := report{Header: newHeader(o)}
	h := rep.Header
	fmt.Printf("# nproc=%d C=%d go=%s kernel=%s commit=%s seed=%d seconds=%g loopback=%t\n",
		h.Nproc, h.C, h.GoVersion, h.Kernel, h.Commit, h.Seed, h.Seconds, h.Loopback)
	traces := map[string]any{}
	for _, w := range workloads() {
		m := &measured{Name: w.name, Loop: w.loop, Load: w.load, Procs: w.gomaxprocs(h.C), Conns: w.connections(h.C)}
		bound := ""
		if m.Procs == 1 {
			bound = " (bound to one processor)"
		}
		fmt.Printf("\n## %s: %s loop, %s; GOMAXPROCS=%d%s connections=%d\n", m.Name, m.Loop, m.Load, m.Procs, bound, m.Conns)
		if err := measureEndToEnd(o, w, m); err != nil {
			return err
		}
		printStats(endToEnd, m.EndToEnd)
		if o.trace == 1 {
			if err := measureTraced(o, w, m); err != nil {
				return err
			}
			fmt.Println("per-layer, from the traced run:")
			printStats(perLayer, m.PerLayer)
			traces[w.name] = map[string]any{"spans_recorded": m.recorded, "spans_written": len(m.spans), "spans": m.spans}
		}
		fmt.Printf("%-32s %d of %d\n", "failed ops", m.Failed, m.Attempted)
		rep.Workloads = append(rep.Workloads, m)
	}
	if o.out == "" {
		return nil
	}
	if err := writeJSON(o.out, rep); err != nil {
		return err
	}
	if o.trace == 1 {
		return writeJSON(siblingPath(o.out, "trace.json"), traces)
	}
	return nil
}

func printStats(defs []metricDef, stats map[string]stat) {
	for _, d := range defs {
		s := stats[d.name]
		if s.N > 1 {
			fmt.Printf("%-32s %14.6g %-9s q1 %.6g  q3 %.6g  n %d\n", d.name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
		} else if s.Value != 0 {
			fmt.Printf("%-32s %14.6g %s\n", d.name, s.Value, s.Unit)
		}
	}
}

func siblingPath(path, name string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[:i+1] + name
	}
	return name
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
