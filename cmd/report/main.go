// Command report regenerates every experimental artifact in one run — the
// data behind EXPERIMENTS.md. At full scale (the default) it reproduces
// the paper's configuration: 32 processors, unscaled workloads.
//
// Each section's simulations fan out across a bounded worker pool (-j,
// default all CPUs). With -artifacts DIR, each section's per-job results
// and manifest land in DIR/<section>/.
//
//	report             # full scale (seconds)
//	report -quick      # 8 processors, workloads divided by 8
//
// The trace subcommand runs one traced simulation instead and writes a
// Perfetto-loadable Chrome trace (see internal/obs):
//
//	report trace -bench raytrace -system iqolb -p 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"iqolb"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		traceCmd(os.Args[2:])
		return
	}
	var (
		quick = flag.Bool("quick", false, "small machine, scaled-down workloads")

		jobs      = flag.Int("j", runtime.NumCPU(), "parallel simulation workers")
		artifacts = flag.String("artifacts", "", "write each section's per-job result JSON and run manifest under this directory")
		quiet     = flag.Bool("q", false, "suppress progress output on stderr")
	)
	flag.Parse()

	opt := iqolb.Options{Jobs: *jobs}
	if !*quiet {
		opt.Progress = os.Stderr
	}
	// Each section runs as its own batch, so each writes its artifacts
	// and manifest into its own subdirectory.
	batch := func(section string) iqolb.Options {
		o := opt
		if *artifacts != "" {
			o.ArtifactDir = filepath.Join(*artifacts, section)
		}
		return o
	}

	procs, scale, sweepProcs, sweepCS := 32, 1, 16, 1024
	if *quick {
		procs, scale, sweepProcs, sweepCS = 8, 8, 8, 256
	}

	emit := func(section string, body string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "report: %s: %v\n", section, err)
			if errors.Is(err, iqolb.ErrCycleLimit) {
				fmt.Fprintln(os.Stderr, "report: a simulation hit the engine's cycle limit — its results would be truncated; use -quick or a larger cycle budget")
				os.Exit(2)
			}
			os.Exit(1)
		}
		fmt.Println(body)
	}

	fmt.Println(iqolb.Table1())
	fmt.Println(iqolb.Table2())

	t3, _, err := iqolb.Table3(batch("table3"), procs, scale)
	emit("table3", t3, err)

	f1, _, err := iqolb.Figure1(batch("figure1"), sweepProcs, sweepCS)
	emit("figure1", f1, err)

	f2, _, err := iqolb.Figure2()
	emit("figure2", f2, err)
	f3, _, err := iqolb.Figure3()
	emit("figure3", f3, err)
	f4, _, err := iqolb.Figure4()
	emit("figure4", f4, err)

	sc, err := iqolb.Sweep(batch("scaling"), iqolb.SweepSpec{
		Kind: iqolb.SweepScalingKind, Bench: "raytrace",
		ProcCounts: []int{1, 2, 4, 8, 16, 32}, Scale: scale,
	})
	emit("scaling", sc, err)

	to, err := iqolb.Sweep(batch("timeout"), iqolb.SweepSpec{
		Kind: iqolb.SweepTimeoutKind, Procs: sweepProcs, TotalCS: sweepCS,
		Budgets: []iqolb.Time{200, 500, 1000, 5000, 10000, 50000},
	})
	emit("timeout", to, err)

	for _, kind := range []iqolb.SweepKind{
		iqolb.SweepRetentionKind, iqolb.SweepCollocationKind,
		iqolb.SweepPredictorKind, iqolb.SweepGeneralizedKind,
	} {
		out, err := iqolb.Sweep(batch(string(kind)), iqolb.SweepSpec{Kind: kind, Procs: sweepProcs, TotalCS: sweepCS})
		emit(string(kind), out, err)
	}
}
