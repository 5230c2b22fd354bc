// Command sweep runs the ablation and extension studies listed in
// DESIGN.md:
//
//	sweep -study scaling -bench raytrace       # contention scaling 1..32
//	sweep -study timeout                       # §3.2/§3.3 time-out budgets
//	sweep -study retention                     # queue retention vs breakdown
//	sweep -study collocation                   # §6 collocation extension
//	sweep -study predictor                     # §3.4 predictor vs always-lock
//	sweep -study generalized                   # §6 Generalized IQOLB
//
// Every study fans its configurations out across a bounded worker pool
// (-j, default all CPUs); the rendered tables are byte-identical to a
// serial run regardless of worker count.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"iqolb"
)

func main() {
	var (
		study = flag.String("study", "scaling", "scaling | timeout | retention | collocation | predictor | generalized")
		bench = flag.String("bench", "raytrace", "benchmark for the scaling study")
		procs = flag.Int("procs", 16, "processor count for the fixed-size studies")
		cs    = flag.Int("cs", 1024, "critical sections for the fixed-size studies")
		scale = flag.Int("scale", 1, "divide the scaling-study workload by this factor")

		jobs      = flag.Int("j", runtime.NumCPU(), "parallel simulation workers")
		artifacts = flag.String("artifacts", "", "write per-job result JSON and the run manifest to this directory")
		quiet     = flag.Bool("q", false, "suppress progress output on stderr")
		checked   = flag.Bool("check", false, "run every job under the protocol-invariant monitors (internal/check)")
		traceDir  = flag.String("trace-dir", "", "trace every job: write per-job Perfetto exports to this directory")

		faultsFlag = flag.String("faults", "", `inject faults into every job: comma-separated kind names or "all"`)
		faultSeed  = flag.Uint64("fault-seed", 1, "deterministic seed for the fault plan")
		faultRate  = flag.Float64("fault-rate", 0, "per-opportunity injection probability (0 = always)")
		keepGoing  = flag.Bool("keep-going", false, "run every job even after one fails; failed jobs are recorded in the manifest")
	)
	flag.Parse()

	opt := iqolb.Options{Jobs: *jobs, ArtifactDir: *artifacts, Check: *checked, Obs: *traceDir, KeepGoing: *keepGoing}
	if *faultsFlag != "" {
		kinds, err := iqolb.ParseFaultKinds(*faultsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(2)
		}
		opt.Faults = &iqolb.FaultPlan{Seed: *faultSeed, Kinds: kinds, Rate: *faultRate, Degrade: true}
	}
	if !*quiet {
		opt.Progress = os.Stderr
	}

	out, err := iqolb.Sweep(opt, iqolb.SweepSpec{
		Kind:       iqolb.SweepKind(*study),
		Bench:      *bench,
		Procs:      *procs,
		ProcCounts: []int{1, 2, 4, 8, 16, 32},
		TotalCS:    *cs,
		Budgets:    []iqolb.Time{200, 500, 1000, 5000, 10000, 50000},
		Scale:      *scale,
	})
	if err != nil {
		var specErr *iqolb.SweepSpecError
		switch {
		case errors.As(err, &specErr):
			fmt.Fprintf(os.Stderr, "sweep: %v\n", specErr)
			if specErr.Field == "Kind" {
				kinds := make([]string, 0, 6)
				for _, k := range iqolb.SweepKinds() {
					kinds = append(kinds, string(k))
				}
				fmt.Fprintf(os.Stderr, "sweep: available studies: %s\n", strings.Join(kinds, " | "))
			}
			os.Exit(2)
		case errors.Is(err, iqolb.ErrDeadlock):
			// The typed diagnosis carries a per-processor stall dump;
			// print it whole so the wedged synchronization is visible.
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			os.Exit(3)
		case errors.Is(err, iqolb.ErrCycleLimit):
			fmt.Fprintf(os.Stderr, "sweep: %v\n", err)
			fmt.Fprintln(os.Stderr, "sweep: a simulation hit the engine's cycle limit — its results would be truncated; shrink the workload (-scale, -cs) or the machine (-procs)")
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}
