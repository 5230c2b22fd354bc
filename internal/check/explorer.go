package check

import (
	"fmt"

	"iqolb/internal/engine"
	"iqolb/internal/interconnect"
	"iqolb/internal/machine"
	"iqolb/internal/workload"
)

// ExploreConfig bounds a schedule-exploration run. The explorer permutes
// coherence-message delivery by assigning each of the first Window data
// messages (starting at Offset) one extra latency from Deltas, enumerating
// every len(Deltas)^Window assignment. Per-source FIFO ordering is
// preserved (the network refuses to reorder messages from one node), so
// every explored schedule is one the crossbar could legally produce.
type ExploreConfig struct {
	// Procs is the machine size (the explorer targets 2–4).
	Procs int
	// Mechanism under exploration; the zero value selects IQOLB.
	Mechanism Mechanism
	// Params is the workload signature; nil selects a 1-line lock
	// hand-off kernel sized to Procs.
	Params *workload.Params
	// Window is how many consecutive data messages get perturbed (0 = 6).
	Window int
	// Offset is the index of the first perturbed message.
	Offset uint64
	// Deltas are the candidate extra latencies (nil = {0, 17, 41} cycles,
	// straddling the 12-cycle address and 40-cycle data latencies).
	Deltas []engine.Time
	// MaxSchedules refuses (with an error, not silent truncation) to
	// enumerate more than this many schedules (0 = 4096).
	MaxSchedules int
	// CycleLimit aborts one schedule's run (0 = 20M cycles).
	CycleLimit engine.Time
	// StarvationBound passes through to the per-schedule monitor.
	StarvationBound engine.Time
}

// ExploreReport summarizes an exploration.
type ExploreReport struct {
	// Schedules is how many delivery schedules ran.
	Schedules int
	// Violations aggregates monitor violations across schedules; each
	// Detail is prefixed with its schedule number.
	Violations []Violation
	// Panics records protocol panics (caught per schedule).
	Panics []string
	// Baseline is the unperturbed schedule's final per-lock counters.
	Baseline []uint64
	// DistinctFinals counts distinct final counter vectors; a correct
	// protocol yields exactly 1 (the kernels are timing-independent).
	DistinctFinals int
}

// Err reports the exploration's outcome as an error (nil when every
// schedule was clean and converged to one final state).
func (r *ExploreReport) Err() error {
	switch {
	case len(r.Violations) > 0:
		return fmt.Errorf("check: explorer: %d violation(s) across %d schedules, first: %s",
			len(r.Violations), r.Schedules, r.Violations[0])
	case len(r.Panics) > 0:
		return fmt.Errorf("check: explorer: %d panic(s) across %d schedules, first: %s",
			len(r.Panics), r.Schedules, r.Panics[0])
	case r.DistinctFinals > 1:
		return fmt.Errorf("check: explorer: %d distinct final states across %d schedules (want 1)",
			r.DistinctFinals, r.Schedules)
	}
	return nil
}

// defaultHandoffParams is the 2-proc/1-line hand-off kernel of the
// acceptance criteria: every processor contends for one lock repeatedly,
// so the whole run is LPRFO queueing, delayed responses, tear-offs, and
// releaser-to-acquirer transfers on a single line.
func defaultHandoffParams(procs int) workload.Params {
	return workload.Params{
		Iterations: 1,
		Locks:      1,
		TotalCS:    procs * 3,
		HotPct:     100,
		CSWork:     5,
		CSWrites:   1,
		ThinkWork:  10,
	}
}

// Explore enumerates the configured schedule space, running the invariant
// monitors at full strength (a scan after every event) on every schedule,
// and checks that all schedules converge to the same final counters.
func Explore(cfg ExploreConfig) (*ExploreReport, error) {
	if cfg.Procs == 0 {
		cfg.Procs = 2
	}
	if cfg.Mechanism.Name == "" {
		cfg.Mechanism = Mechanisms()[4] // iqolb
	}
	if cfg.Window == 0 {
		cfg.Window = 6
	}
	if len(cfg.Deltas) == 0 {
		cfg.Deltas = []engine.Time{0, 17, 41}
	}
	if cfg.MaxSchedules == 0 {
		cfg.MaxSchedules = 4096
	}
	if cfg.CycleLimit == 0 {
		cfg.CycleLimit = 20_000_000
	}
	p := defaultHandoffParams(cfg.Procs)
	if cfg.Params != nil {
		p = *cfg.Params
	}

	total := 1
	for i := 0; i < cfg.Window; i++ {
		total *= len(cfg.Deltas)
		if total > cfg.MaxSchedules {
			return nil, fmt.Errorf("check: explorer: %d^%d schedules exceed MaxSchedules %d",
				len(cfg.Deltas), cfg.Window, cfg.MaxSchedules)
		}
	}

	rep := &ExploreReport{}
	finals := make(map[string]bool)
	assign := make([]int, cfg.Window)
	for sched := 0; sched < total; sched++ {
		// Decode sched as a base-len(Deltas) odometer; schedule 0 is the
		// all-zero (unperturbed) assignment.
		n := sched
		for i := range assign {
			assign[i] = n % len(cfg.Deltas)
			n /= len(cfg.Deltas)
		}
		counters, vs, panicMsg := runSchedule(cfg, p, assign)
		rep.Schedules++
		for _, v := range vs {
			v.Detail = fmt.Sprintf("schedule %d: %s", sched, v.Detail)
			rep.Violations = append(rep.Violations, v)
		}
		if panicMsg != "" {
			rep.Panics = append(rep.Panics, fmt.Sprintf("schedule %d: %s", sched, panicMsg))
			continue
		}
		if counters == nil {
			continue // run failed; already recorded
		}
		finals[fmt.Sprint(counters)] = true
		if sched == 0 {
			rep.Baseline = counters
		}
	}
	rep.DistinctFinals = len(finals)
	return rep, nil
}

// runSchedule executes one perturbed run under a monitor.
func runSchedule(cfg ExploreConfig, p workload.Params, assign []int) (
	counters []uint64, vs []Violation, panicMsg string) {
	defer func() {
		if r := recover(); r != nil {
			panicMsg = fmt.Sprint(r)
		}
	}()
	bld, err := workload.Generate(p, cfg.Mechanism.Primitive, cfg.Procs)
	if err != nil {
		return nil, nil, err.Error()
	}
	mcfg := cfg.Mechanism.Config(cfg.Procs)
	mcfg.CycleLimit = cfg.CycleLimit
	m, err := machine.New(mcfg, bld.Program, nil)
	if err != nil {
		return nil, nil, err.Error()
	}
	for _, l := range bld.Locks {
		m.RegisterLockAddr(l)
	}
	mon := AttachToMachine(m, Config{StarvationBound: cfg.StarvationBound})
	end := cfg.Offset + uint64(len(assign))
	m.Fabric().Net().SetPerturb(func(idx uint64, msg interconnect.Msg) engine.Time {
		if idx < cfg.Offset || idx >= end {
			return 0
		}
		return cfg.Deltas[assign[idx-cfg.Offset]]
	})
	res, err := m.Run()
	mon.Finish()
	vs = mon.Violations()
	if len(vs) > 0 {
		return nil, vs, ""
	}
	if err != nil {
		return nil, nil, err.Error()
	}
	if res.HitLimit {
		return nil, nil, fmt.Sprintf("hit the %d-cycle limit", cfg.CycleLimit)
	}
	if err := bld.VerifyCounters(p, m.Peek); err != nil {
		return nil, nil, err.Error()
	}
	counters = make([]uint64, p.Locks)
	for i := 0; i < p.Locks; i++ {
		counters[i] = m.Peek(p.DataAddr(i))
	}
	return counters, nil, ""
}
