// Command report regenerates every experimental artifact in one run — the
// data behind EXPERIMENTS.md. At full scale (the default) it reproduces
// the paper's configuration: 32 processors, unscaled workloads.
//
// Each section's simulations fan out across a bounded worker pool (-j,
// default all CPUs) and are memoized in the on-disk result cache, so
// re-running the report only simulates what changed.
//
//	report             # full scale (seconds on a warm cache)
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
		noCache   = flag.Bool("no-cache", false, "always simulate; do not read or write the result cache")
		cacheDir  = flag.String("cache-dir", iqolb.DefaultCacheDir, "on-disk result cache location")
		artifacts = flag.String("artifacts", "", "write per-job result JSON and the run manifest to this directory")
		quiet     = flag.Bool("q", false, "suppress progress output on stderr")
	)
	flag.Parse()

	opt := iqolb.Options{Jobs: *jobs, CacheDir: *cacheDir, ArtifactDir: *artifacts}
	if *noCache {
		opt.CacheDir = ""
	}
	if !*quiet {
		opt.Progress = os.Stderr
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

	t3, _, err := iqolb.Table3(opt, procs, scale)
	emit("table3", t3, err)

	f1, _, err := iqolb.Figure1(opt, sweepProcs, sweepCS)
	emit("figure1", f1, err)

	f2, _, err := iqolb.Figure2()
	emit("figure2", f2, err)
	f3, _, err := iqolb.Figure3()
	emit("figure3", f3, err)
	f4, _, err := iqolb.Figure4()
	emit("figure4", f4, err)

	sc, err := iqolb.Sweep(opt, iqolb.SweepSpec{
		Kind: iqolb.SweepScalingKind, Bench: "raytrace",
		ProcCounts: []int{1, 2, 4, 8, 16, 32}, Scale: scale,
	})
	emit("scaling", sc, err)

	to, err := iqolb.Sweep(opt, iqolb.SweepSpec{
		Kind: iqolb.SweepTimeoutKind, Procs: sweepProcs, TotalCS: sweepCS,
		Budgets: []iqolb.Time{200, 500, 1000, 5000, 10000, 50000},
	})
	emit("timeout", to, err)

	for _, kind := range []iqolb.SweepKind{
		iqolb.SweepRetentionKind, iqolb.SweepCollocationKind,
		iqolb.SweepPredictorKind, iqolb.SweepGeneralizedKind,
	} {
		out, err := iqolb.Sweep(opt, iqolb.SweepSpec{Kind: kind, Procs: sweepProcs, TotalCS: sweepCS})
		emit(string(kind), out, err)
	}
}
