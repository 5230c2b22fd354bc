package experiments

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"iqolb/internal/engine"
	"iqolb/internal/faults"
	"iqolb/internal/machine"
	"iqolb/internal/obs"
	"iqolb/internal/workload"
)

// ErrCycleLimit marks a run aborted at the engine's cycle limit: its
// measurements would be truncated and must not be reported as results.
var ErrCycleLimit = errors.New("hit the engine cycle limit")

// TraceOptions enables the observability layer (internal/obs) for a
// spec's run. A traced run collects the structured event stream, embeds
// the metrics snapshot in its Result (and manifest record), and — when
// Perfetto names a path — exports the Chrome trace-event JSON there. The
// collectors are passive: a traced run's measurements are identical to an
// untraced one's.
type TraceOptions struct {
	// Perfetto is the output path for the Chrome trace-event JSON export
	// (loadable at ui.perfetto.dev); empty skips the export.
	Perfetto string `json:"perfetto,omitempty"`
}

// Spec is the canonical description of one simulation job: workload ×
// system × machine size, plus optional policy overrides. Specs are the
// currency of RunSpecs — they are resolved to a full machine
// configuration and executed on a worker.
type Spec struct {
	// Name labels the job; defaults to the benchmark name.
	Name string `json:"name,omitempty"`
	// Bench names a Table 2 benchmark or microbenchmark; mutually
	// exclusive with Params.
	Bench string `json:"bench,omitempty"`
	// Params is an explicit synchronization signature.
	Params *workload.Params `json:"params,omitempty"`
	// System is the system name (see Systems).
	System string `json:"system"`
	// Procs is the machine size.
	Procs int `json:"procs"`
	// Scale divides a named benchmark's workload (ignored with Params).
	Scale int `json:"scale,omitempty"`
	// Kernel selects a non-lock kernel: "" for the lock workload,
	// "fetchadd" for the lock-free Fetch&Add kernel.
	Kernel string `json:"kernel,omitempty"`
	// TotalOps/Think parameterize the fetchadd kernel.
	TotalOps int   `json:"total_ops,omitempty"`
	Think    int64 `json:"think,omitempty"`
	// LockTimeout overrides the §3.3 lock delay budget when non-nil.
	LockTimeout *engine.Time `json:"lock_timeout,omitempty"`
	// PredictorEntries overrides the §3.4 predictor size when non-nil
	// (zero selects the always-lock ablation).
	PredictorEntries *int `json:"predictor_entries,omitempty"`
	// CycleLimit overrides the engine's runaway-run abort budget when
	// non-nil. Runs that hit it fail with ErrCycleLimit.
	CycleLimit *engine.Time `json:"cycle_limit,omitempty"`
	// Check runs the job under the internal/check protocol-invariant
	// monitors; any violation fails the job.
	Check bool `json:"check,omitempty"`
	// Trace enables the observability layer for this run (see
	// TraceOptions).
	Trace *TraceOptions `json:"trace,omitempty"`
	// Faults arms a deterministic fault-injection plan for the run
	// (nil = clean). The plan implies the invariant monitors, so
	// every injected fault is either survived (oracle-verified final
	// state) or reported as a typed failure.
	Faults *faults.Plan `json:"faults,omitempty"`
}

// resolved is a Spec with every default filled in: the effective
// workload parameters, system, and complete machine configuration.
type resolved struct {
	name     string
	kernel   string
	params   workload.Params
	totalOps int
	think    int64
	sys      System
	cfg      machine.Config
	check    bool
	trace    *TraceOptions
}

// resolve validates the spec and computes its full execution plan.
func (s Spec) resolve() (resolved, error) {
	sys, err := SystemByName(s.System)
	if err != nil {
		return resolved{}, err
	}
	if s.Procs < 1 {
		return resolved{}, fmt.Errorf("spec %q: procs must be positive", s.Name)
	}
	cfg := sys.MachineConfig(s.Procs)
	if s.LockTimeout != nil {
		cfg.Core.LockTimeout = *s.LockTimeout
	}
	if s.PredictorEntries != nil {
		cfg.Core.PredictorEntries = *s.PredictorEntries
	}
	if s.CycleLimit != nil {
		cfg.CycleLimit = *s.CycleLimit
	}
	cfg.Faults = s.Faults
	r := resolved{name: s.Name, kernel: s.Kernel, sys: sys, cfg: cfg, check: s.Check, trace: s.Trace}
	switch s.Kernel {
	case "fetchadd":
		ops := s.TotalOps - s.TotalOps%s.Procs
		if ops == 0 {
			ops = s.Procs
		}
		r.totalOps, r.think = ops, s.Think
		if r.name == "" {
			r.name = "fetchadd"
		}
		return r, nil
	case "":
	default:
		return resolved{}, fmt.Errorf("spec %q: unknown kernel %q", s.Name, s.Kernel)
	}
	switch {
	case s.Bench != "" && s.Params != nil:
		return resolved{}, fmt.Errorf("spec %q: Bench and Params are mutually exclusive", s.Name)
	case s.Bench != "":
		spec, err := workload.ByName(s.Bench)
		if err != nil {
			return resolved{}, err
		}
		scale := s.Scale
		if scale < 1 {
			scale = 1
		}
		r.params = Scale(spec.Params, scale, s.Procs)
		if r.name == "" {
			r.name = spec.Name
		}
	case s.Params != nil:
		r.params = *s.Params
		if r.name == "" {
			r.name = "custom"
		}
	default:
		return resolved{}, fmt.Errorf("spec %q: need Bench or Params", s.Name)
	}
	return r, nil
}

// label is the human-readable job identity used in progress lines and
// artifact file names.
func (r resolved) label() string {
	return fmt.Sprintf("%s/%s/p%d", r.name, r.sys.Name, r.cfg.Processors)
}

// run executes the resolved plan.
func (r resolved) run() (Result, error) {
	if r.kernel == "fetchadd" {
		return runFetchAdd(r.cfg, r.sys, r.cfg.Processors, r.totalOps, r.think, r.check, r.trace)
	}
	bld, err := workload.Generate(r.params, r.sys.Primitive, r.cfg.Processors)
	if err != nil {
		return Result{}, err
	}
	return runBuild(r.cfg, bld, r.name, r.sys.Name, r.check, r.trace, &r.params, func(peek Peeker) error {
		return bld.VerifyCounters(r.params, peek)
	})
}

// finishTrace completes a traced run: it embeds the metrics snapshot in
// the result and writes the Perfetto export when a path was given.
func finishTrace(log *obs.Log, tr *TraceOptions, res *Result) error {
	if log == nil {
		return nil
	}
	snap := log.Snapshot()
	res.Obs = &snap
	if tr.Perfetto == "" {
		return nil
	}
	f, err := os.Create(tr.Perfetto)
	if err != nil {
		return err
	}
	if err := log.ExportPerfetto(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RunSpec resolves and executes one spec serially.
func RunSpec(s Spec) (Result, error) {
	r, err := s.resolve()
	if err != nil {
		return Result{}, err
	}
	return r.run()
}

// Options configures a batch. The zero value runs on runtime.NumCPU()
// workers with artifacts and progress off.
type Options struct {
	// Jobs bounds the worker pool; <= 0 means runtime.NumCPU().
	Jobs int
	// ArtifactDir, when non-empty, receives per-job result JSON and the
	// batch manifest.
	ArtifactDir string
	// Progress receives streaming completed/total/ETA lines (stderr in
	// the CLIs); nil is silent.
	Progress io.Writer
	// Check forces every spec in the batch to run under the
	// internal/check invariant monitors (the CLIs' -check flag).
	Check bool
	// Obs, when non-empty, enables the observability layer for every
	// job in the batch: each job's Perfetto trace lands at
	// <Obs>/<label>.trace.json (unless the spec already carries its own
	// TraceOptions) and its metrics snapshot is embedded in the
	// manifest record.
	Obs string
	// Faults arms this fault plan on every spec in the batch that does
	// not already carry its own (the CLIs' -faults flags).
	Faults *faults.Plan
	// KeepGoing runs every job despite failures. The manifest then
	// doubles as the batch's failure manifest: each failed job carries
	// its error in its record, and the returned error is still the first
	// failure in spec order, alongside the partial results.
	KeepGoing bool
}

// RunSpecs executes a batch of specs across a bounded worker pool and
// returns the results in spec order — output ordering is independent of
// completion order, so tables rendered from a batch are byte-identical
// to a serial run. The manifest carries per-job wall times, sim-cycle
// counts and lock hand-off latency percentiles.
func RunSpecs(opt Options, specs []Spec) ([]Result, *Manifest, error) {
	if opt.Obs != "" {
		if err := os.MkdirAll(opt.Obs, 0o755); err != nil {
			return nil, nil, err
		}
	}
	jobs := make([]job, len(specs))
	for i, s := range specs {
		if opt.Check {
			s.Check = true
		}
		if opt.Faults != nil && s.Faults == nil {
			s.Faults = opt.Faults
		}
		r, err := s.resolve()
		if err != nil {
			return nil, nil, err
		}
		if opt.Obs != "" && r.trace == nil {
			r.trace = &TraceOptions{
				Perfetto: filepath.Join(opt.Obs, sanitizeLabel(r.label())+".trace.json"),
			}
		}
		jobs[i] = job{label: r.label(), run: r.run}
	}
	return runBatch(opt, jobs)
}
