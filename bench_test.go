// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md for the experiment index). Each benchmark prints the
// artifact it reproduces once per run via b.Log (go test -bench . -v shows
// them), and reports simulated cycles per artifact as the headline metric:
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkTable3 -benchtime=1x -v   # print the table
//
// The table/figure benchmarks default to a reduced scale so the full suite
// stays fast; set -benchtime=1x and edit benchScale for full-paper runs
// (cmd/table3 runs the full configuration directly).
package iqolb_test

import (
	"strings"
	"testing"

	"iqolb"
	"iqolb/internal/experiments"
	"iqolb/internal/machine"
	"iqolb/internal/stats"
	"iqolb/internal/workload"
)

// benchProcs and benchScale size the benchmark runs: large enough to show
// the contended regime, small enough to iterate with.
const (
	benchProcs = 16
	benchScale = 4
)

func reportCycles(b *testing.B, cycles uint64) {
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkTable1ConfigValidation regenerates Table 1 (the machine
// configuration) and validates it.
func BenchmarkTable1ConfigValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out := iqolb.Table1()
		if !strings.Contains(out, "L1 data cache") {
			b.Fatal("Table 1 malformed")
		}
	}
	b.Log("\n" + iqolb.Table1())
}

// BenchmarkTable2Workloads regenerates Table 2 (the benchmark inventory),
// building every kernel.
func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if !strings.Contains(iqolb.Table2(), "raytrace") {
			b.Fatal("Table 2 malformed")
		}
	}
	b.Log("\n" + iqolb.Table2())
}

// benchOneSystem runs one benchmark under one system — the building block
// of the Table 3 rows.
func benchOneSystem(b *testing.B, bench string, sys iqolb.System) {
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := iqolb.RunSpec(iqolb.Spec{
			Bench: bench, System: sys.Name, Procs: benchProcs, Scale: benchScale,
		})
		if err != nil {
			b.Fatal(err)
		}
		cycles = res.Cycles
	}
	reportCycles(b, cycles)
}

// BenchmarkTable3 regenerates every cell of Table 3: each Table 2 benchmark
// under TTS, QOLB and IQOLB.
func BenchmarkTable3(b *testing.B) {
	for _, spec := range iqolb.Benchmarks() {
		for _, sys := range []iqolb.System{iqolb.SystemTTS, iqolb.SystemQOLB, iqolb.SystemIQOLB} {
			b.Run(spec.Name+"/"+sys.Name, func(b *testing.B) {
				benchOneSystem(b, spec.Name, sys)
			})
		}
	}
}

// BenchmarkTable3Full computes the whole table (including the 1-processor
// baselines) exactly as cmd/table3 does, at reduced scale.
func BenchmarkTable3Full(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = iqolb.Table3(iqolb.Options{}, benchProcs, benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkFigure1Taxonomy regenerates the Figure 1 design-space
// progression (baseline → aggressive → delayed ±retention → IQOLB
// ±retention ±tear-off) on the hot-lock microbenchmark.
func BenchmarkFigure1Taxonomy(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = iqolb.Figure1(iqolb.Options{}, benchProcs, 512)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkFigure2Trace regenerates the traditional LL/SC message sequence.
func BenchmarkFigure2Trace(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = iqolb.Figure2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkFigure3Trace regenerates the delayed-response sequence.
func BenchmarkFigure3Trace(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = iqolb.Figure3()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkFigure4Trace regenerates the IQOLB sequence.
func BenchmarkFigure4Trace(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, _, err = iqolb.Figure4()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkSweepScaling regenerates the contention-scaling study.
func BenchmarkSweepScaling(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = iqolb.Sweep(iqolb.Options{}, iqolb.SweepSpec{
			Kind: iqolb.SweepScalingKind, Bench: "raytrace",
			ProcCounts: []int{1, 4, 16}, Scale: benchScale * 2,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkAblationTimeout regenerates the §3.2/§3.3 time-out sensitivity
// study.
func BenchmarkAblationTimeout(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = iqolb.Sweep(iqolb.Options{}, iqolb.SweepSpec{
			Kind: iqolb.SweepTimeoutKind, Procs: benchProcs, TotalCS: 512,
			Budgets: []iqolb.Time{200, 1000, 10000},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkAblationRetention regenerates the queue retention vs. breakdown
// study on false-shared locks.
func BenchmarkAblationRetention(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = iqolb.Sweep(iqolb.Options{}, iqolb.SweepSpec{
			Kind: iqolb.SweepRetentionKind, Procs: benchProcs, TotalCS: 512,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkAblationPredictor regenerates the predictor vs. always-lock
// study.
func BenchmarkAblationPredictor(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = iqolb.Sweep(iqolb.Options{}, iqolb.SweepSpec{
			Kind: iqolb.SweepPredictorKind, Procs: benchProcs, TotalCS: 512,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkExtensionCollocation regenerates the §6 collocation study.
func BenchmarkExtensionCollocation(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = iqolb.Sweep(iqolb.Options{}, iqolb.SweepSpec{
			Kind: iqolb.SweepCollocationKind, Procs: benchProcs, TotalCS: 512,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkExtensionGeneralized regenerates the §6 Generalized IQOLB
// reader/writer study.
func BenchmarkExtensionGeneralized(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var err error
		out, err = iqolb.Sweep(iqolb.Options{}, iqolb.SweepSpec{
			Kind: iqolb.SweepGeneralizedKind, Procs: benchProcs, TotalCS: 512,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + out)
}

// BenchmarkFetchAddThroughput measures the Fetch&Phi case of §3.2 across
// the three relevant systems (the quantitative side of Figures 2 and 3).
func BenchmarkFetchAddThroughput(b *testing.B) {
	for _, sys := range []iqolb.System{iqolb.SystemTTS, iqolb.SystemAggressive, iqolb.SystemDelayed} {
		b.Run(sys.Name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := iqolb.RunFetchAdd(sys, benchProcs, 512, 200)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			reportCycles(b, cycles)
		})
	}
}

// BenchmarkObsOverhead measures the cost of the observability layer
// (internal/obs) on a contended IQOLB workload. "disabled" is the default
// path every untraced run takes — the probe fan-out slices are empty, so
// each hook reduces to ranging over nothing — and must stay within ~2% of
// pre-observability throughput. "enabled" attaches the full collector
// (lock lifecycle, delays, tear-offs, bus occupancy, barriers) and builds
// the metrics snapshot. EXPERIMENTS.md records measured numbers; the
// sim-cycle side of the contract (instrumented runs are cycle-identical)
// is pinned by TestNoPerturbation in internal/obs.
func BenchmarkObsOverhead(b *testing.B) {
	spec := iqolb.Spec{Bench: "hotlock", System: "iqolb", Procs: benchProcs, Scale: 2}
	b.Run("disabled", func(b *testing.B) {
		var simCycles uint64
		for i := 0; i < b.N; i++ {
			res, err := iqolb.RunSpec(spec)
			if err != nil {
				b.Fatal(err)
			}
			simCycles = res.Cycles
		}
		reportCycles(b, simCycles)
	})
	b.Run("enabled", func(b *testing.B) {
		traced := spec
		traced.Trace = &iqolb.TraceOptions{}
		var events int
		for i := 0; i < b.N; i++ {
			res, err := iqolb.RunSpec(traced)
			if err != nil {
				b.Fatal(err)
			}
			if res.Obs == nil {
				b.Fatal("traced run produced no snapshot")
			}
			events = res.Obs.Events
		}
		b.ReportMetric(float64(events), "events")
	})
}

// BenchmarkSimulatorThroughput measures the simulator itself: host time per
// simulated cycle on a contended IQOLB workload (a performance regression
// guard for the engine and protocol fast paths).
func BenchmarkSimulatorThroughput(b *testing.B) {
	b.ReportAllocs()
	var simCycles uint64
	for i := 0; i < b.N; i++ {
		res, err := iqolb.RunSpec(iqolb.Spec{
			Bench: "hotlock", System: iqolb.SystemIQOLB.Name, Procs: benchProcs, Scale: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		simCycles += res.Cycles
	}
	b.ReportMetric(float64(simCycles)/float64(b.Elapsed().Nanoseconds())*1000, "simMcycles/s")
}

// BenchmarkSimRaytraceCells runs the cells that dominate the benchmark's
// sim_raytrace workload: raytrace on 32 simulated processors at scale 4,
// under tts (the herd) and then iqolb. It is the recipe for profiling the
// simulator's host costs, and it reports the engine's dispatched events
// per tts+iqolb pair (events/op), the layer that explains them:
//
//	go test -run '^$' -bench SimRaytraceCells -cpuprofile cpu.out
func BenchmarkSimRaytraceCells(b *testing.B) {
	b.ReportAllocs()
	spec, err := workload.ByName("raytrace")
	if err != nil {
		b.Fatal(err)
	}
	const procs = 32
	p := experiments.Scale(spec.Params, 4, procs)
	var ops, events uint64
	for i := 0; i < b.N; i++ {
		for _, sys := range []experiments.System{experiments.SysTTS, experiments.SysIQOLB} {
			bld, err := workload.Generate(p, sys.Primitive, procs)
			if err != nil {
				b.Fatal(err)
			}
			m, err := machine.New(sys.MachineConfig(procs), bld.Program, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, l := range bld.Locks {
				m.RegisterLockAddr(l)
			}
			res, err := m.Run()
			if err != nil || res.HitLimit {
				b.Fatal(err, res.HitLimit)
			}
			ops += res.Stats.Total(func(n *stats.Node) uint64 { return n.LockAcquires + n.LockReleases })
			events += m.Engine().Fired()
		}
	}
	b.ReportMetric(float64(ops)/b.Elapsed().Seconds(), "lock-ops/s")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
}
