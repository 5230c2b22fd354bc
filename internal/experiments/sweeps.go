package experiments

import (
	"fmt"

	"iqolb/internal/engine"
	"iqolb/internal/report"
	"iqolb/internal/stats"
	"iqolb/internal/workload"
)

// sweepScaling runs one benchmark across processor counts for the main
// systems — the contention-scaling study behind the paper's motivation.
// The grid fans out across the harness; rows render in spec order.
func sweepScaling(opt Options, benchName string, procCounts []int, scaleFactor int) (string, error) {
	systems := []System{SysTTS, SysDelayed, SysIQOLB, SysQOLB}
	var specs []Spec
	for _, procs := range procCounts {
		for _, sys := range systems {
			specs = append(specs, Spec{
				Bench: benchName, System: sys.Name, Procs: procs, Scale: scaleFactor,
			})
		}
	}
	results, _, err := RunSpecs(opt, specs)
	if err != nil {
		return "", err
	}
	t := report.NewTable(fmt.Sprintf("Scaling sweep: %s (cycles; speedup vs 1-proc TTS in parens)", benchName),
		append([]string{"procs"}, systemNames(systems)...)...)
	base := results[0].Cycles // procCounts[0] × SysTTS is the first spec
	for i, procs := range procCounts {
		row := []any{procs}
		for j := range systems {
			r := results[i*len(systems)+j]
			row = append(row, fmt.Sprintf("%d (%.2f)", r.Cycles, float64(base)/float64(r.Cycles)))
		}
		t.Row(row...)
	}
	return t.String(), nil
}

func systemNames(systems []System) []string {
	names := make([]string, len(systems))
	for i, s := range systems {
		names[i] = s.Name
	}
	return names
}

// sweepTimeout studies the §3.2/§3.3 time-out budgets: IQOLB's lock delay
// budget must comfortably exceed critical-section length or hand-offs
// degrade into timeouts.
func sweepTimeout(opt Options, procs, totalCS int, budgets []engine.Time) (string, error) {
	// Long critical sections (400 cycles) so that budgets below the
	// section length force time-outs and the hand-off degrades, while
	// ample budgets let every hand-off ride the release.
	p := workload.Params{
		Iterations: 1, TotalCS: totalCS - totalCS%procs, Locks: 1, HotPct: 100,
		CSWork: 400, ThinkWork: 300, ThinkJitter: 100,
	}
	var specs []Spec
	for _, budget := range budgets {
		b := budget
		specs = append(specs, Spec{
			Name: fmt.Sprintf("timeout-%d", b), Params: &p,
			System: SysIQOLB.Name, Procs: procs, LockTimeout: &b,
		})
	}
	results, _, err := RunSpecs(opt, specs)
	if err != nil {
		return "", err
	}
	t := report.NewTable(
		fmt.Sprintf("Timeout sweep: IQOLB on hot lock with 400-cycle sections, %d processors", procs),
		"lock budget", "cycles", "timeouts", "releases via delay", "handoff mean")
	for i, budget := range budgets {
		r := results[i]
		t.Row(uint64(budget), r.Cycles, r.Timeouts,
			r.Stats.Total(func(n *stats.Node) uint64 { return n.DelaysReleased }),
			fmt.Sprintf("%.0f", r.LockHandoffMean))
	}
	return t.String(), nil
}

// sweepRetention exercises the queue-retention vs. breakdown alternatives
// on a kernel with false-shared locks, where independent lock holders
// write each other's delayed lines.
func sweepRetention(opt Options, procs, totalCS int) (string, error) {
	p := workload.Params{
		Iterations: 1, TotalCS: totalCS - totalCS%procs, Locks: 8, HotPct: 0,
		CSWork: 30, ThinkWork: 150, ThinkJitter: 100, LocksPerLine: 2,
	}
	systems := []System{SysDelayed, SysDelayedNoRet, SysIQOLB, SysIQOLBNoRet}
	var specs []Spec
	for _, sys := range systems {
		specs = append(specs, Spec{Name: "falseshare", Params: &p, System: sys.Name, Procs: procs})
	}
	results, _, err := RunSpecs(opt, specs)
	if err != nil {
		return "", err
	}
	t := report.NewTable(fmt.Sprintf("Queue retention sweep: 8 locks packed 2/line, %d processors", procs),
		"system", "cycles", "bus txs", "breakdowns", "retention trips", "timeouts")
	for i, sys := range systems {
		r := results[i]
		t.Row(sys.Name, r.Cycles, r.BusTransactions, r.Breakdowns,
			r.Stats.Total(func(n *stats.Node) uint64 { return n.RetentionTrips }), r.Timeouts)
	}
	return t.String(), nil
}

// sweepCollocation studies the collocation extension (§6 / Generalized
// IQOLB direction): protected data in the lock's line rides along with the
// hand-off.
func sweepCollocation(opt Options, procs, totalCS int) (string, error) {
	base := workload.Params{
		Iterations: 1, TotalCS: totalCS - totalCS%procs, Locks: 1, HotPct: 100,
		CSWork: 10, ThinkWork: 300, ThinkJitter: 100,
	}
	col := base
	col.Collocate = true
	systems := []System{SysTTS, SysQOLB, SysIQOLB}
	var specs []Spec
	for _, sys := range systems {
		specs = append(specs,
			Spec{Name: "colloc-off", Params: &base, System: sys.Name, Procs: procs},
			Spec{Name: "colloc-on", Params: &col, System: sys.Name, Procs: procs})
	}
	results, _, err := RunSpecs(opt, specs)
	if err != nil {
		return "", err
	}
	t := report.NewTable(fmt.Sprintf("Collocation sweep: hot lock + protected word, %d processors", procs),
		"system", "separate line", "collocated", "gain")
	for i, sys := range systems {
		sep, c := results[2*i], results[2*i+1]
		t.Row(sys.Name, sep.Cycles, c.Cycles, float64(sep.Cycles)/float64(c.Cycles))
	}
	return t.String(), nil
}

// sweepPredictor compares the §3.4 PC-indexed predictor against the
// always-lock ablation and reports training accuracy.
func sweepPredictor(opt Options, procs, totalCS int) (string, error) {
	spec, err := workload.ByName("hotlock")
	if err != nil {
		return "", err
	}
	p := spec.Params
	p.TotalCS = totalCS - totalCS%procs
	entriesList := []int{256, 0}
	var specs []Spec
	for _, entries := range entriesList {
		e := entries
		name := "pc-indexed"
		if e == 0 {
			name = "always-lock"
		}
		specs = append(specs, Spec{
			Name: "predictor-" + name, Params: &p,
			System: SysIQOLB.Name, Procs: procs, PredictorEntries: &e,
		})
	}
	results, _, err := RunSpecs(opt, specs)
	if err != nil {
		return "", err
	}
	t := report.NewTable(fmt.Sprintf("Predictor sweep: hot lock, %d processors", procs),
		"configuration", "cycles", "pred hits", "pred misses", "timeouts")
	for i, entries := range entriesList {
		name := "pc-indexed"
		if entries == 0 {
			name = "always-lock"
		}
		r := results[i]
		t.Row(name, r.Cycles,
			r.Stats.Total(func(n *stats.Node) uint64 { return n.PredictorHits }),
			r.Stats.Total(func(n *stats.Node) uint64 { return n.PredictorMisses }),
			r.Timeouts)
	}
	return t.String(), nil
}

// sweepGeneralized evaluates the §6 Generalized IQOLB extension on a
// reader/writer kernel: part of the machine updates protected data under a
// lock while the rest polls it with plain loads. Under plain IQOLB every
// poll downgrades the writer's data line; with the generalized speculation
// the polls are answered with tear-offs and the data stays put until the
// release.
func sweepGeneralized(opt Options, procs, totalCS int) (string, error) {
	pollers := procs / 2
	workers := procs - pollers
	p := workload.Params{
		// One lock per writer: the bottleneck is each writer's protected
		// data line, not lock contention.
		Iterations: 4, TotalCS: totalCS - totalCS%workers, Locks: workers, HotPct: 0,
		CSWork: 400, CSWrites: 8, ThinkWork: 100, ThinkJitter: 50,
		PollProcs: pollers, PollReads: totalCS / 2, PollThink: 20,
	}
	systems := []System{SysTTS, SysIQOLB, SysGeneralized}
	var specs []Spec
	for _, sys := range systems {
		specs = append(specs, Spec{Name: "readerwriter", Params: &p, System: sys.Name, Procs: procs})
	}
	results, _, err := RunSpecs(opt, specs)
	if err != nil {
		return "", err
	}
	t := report.NewTable(fmt.Sprintf("Generalized IQOLB sweep: %d writers under locks, %d pollers", workers, pollers),
		"system", "cycles", "bus txs", "tear-offs", "data-line UPGRs", "timeouts")
	for i, sys := range systems {
		r := results[i]
		t.Row(sys.Name, r.Cycles, r.BusTransactions, r.TearOffs,
			r.Stats.TotalTx(int(2 /* mem.TxUPGR */)), r.Timeouts)
	}
	t.Note("the generalized mode answers poller reads with tear-offs, keeping the")
	t.Note("writer's data line exclusive across the critical section (paper §6)")
	return t.String(), nil
}
