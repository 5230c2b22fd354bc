// Command table3 reproduces the paper's Table 3: absolute TTS speedups and
// QOLB/IQOLB speedups relative to TTS for the five benchmarks, side by side
// with the published numbers.
//
// The 4 × 5 benchmark/system grid fans out across a bounded worker pool
// (-j, default all CPUs). The rendered table is byte-identical to a
// serial (-j 1) run regardless of worker count.
//
//	table3                     # full scale, 32 processors (the paper's setup)
//	table3 -procs 8 -scale 4   # quick smoke run
//	table3 -j 8 -artifacts out # 8 workers, JSON artifacts + manifest in out/
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
	var (
		procs = flag.Int("procs", 32, "processor count")
		scale = flag.Int("scale", 1, "divide the workloads by this factor")

		jobs      = flag.Int("j", runtime.NumCPU(), "parallel simulation workers")
		artifacts = flag.String("artifacts", "", "write per-job result JSON and the run manifest to this directory")
		quiet     = flag.Bool("q", false, "suppress progress output on stderr")
		keepGoing = flag.Bool("keep-going", false, "run every cell even after one fails; failed cells are recorded in the manifest")
	)
	flag.Parse()

	opt := iqolb.Options{Jobs: *jobs, ArtifactDir: *artifacts, KeepGoing: *keepGoing}
	if !*quiet {
		opt.Progress = os.Stderr
	}

	out, _, err := iqolb.Table3(opt, *procs, *scale)
	if err != nil {
		if errors.Is(err, iqolb.ErrCycleLimit) {
			fmt.Fprintf(os.Stderr, "table3: %v\n", err)
			fmt.Fprintln(os.Stderr, "table3: a simulation hit the engine's cycle limit — its results would be truncated; shrink the workload (-scale) or the machine (-procs)")
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "table3:", err)
		os.Exit(1)
	}
	fmt.Print(out)
}
