package experiments

import (
	"reflect"
	"testing"

	"iqolb/internal/check"
	"iqolb/internal/core"
	"iqolb/internal/isa"
	"iqolb/internal/machine"
	"iqolb/internal/synclib"
	"iqolb/internal/trace"
	"iqolb/internal/workload"
)

// How runCell watches a run.
type cellMode int

const (
	asleep  cellMode = iota // spinning processors sleep
	awake                   // a recorder of every line: no processor sleeps
	checked                 // asleep, under the invariant monitor
)

// runCell runs one benchmark cell and returns the machine with its result.
// A processor never sleeps on a line a trace recorder wants, so an awake
// run takes the path where every spin iteration is dispatched.
func runCell(t *testing.T, bench string, sys System, procs, scale int, cfgEdit func(*machine.Config), mode cellMode) (*machine.Machine, machine.Result) {
	t.Helper()
	spec, err := workload.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	bld, err := workload.Generate(Scale(spec.Params, scale, procs), sys.Primitive, procs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sys.MachineConfig(procs)
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	var rec *trace.Recorder
	if mode == awake {
		rec = trace.NewRecorderAll()
	}
	m, err := machine.New(cfg, bld.Program, rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range bld.Locks {
		m.RegisterLockAddr(l)
	}
	var mon *check.Monitor
	if mode == checked {
		mon = check.AttachToMachine(m, check.Config{})
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if mon != nil {
		if err := mon.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	if res.HitLimit {
		t.Fatalf("%s/%s hit the cycle limit", bench, sys.Name)
	}
	return m, res
}

// compareSleep runs a cell with sleeping spinners, again under the
// invariant monitor, and without sleeping, and requires each sleeping run
// to agree with the awake one field by field: the Result (every statistic
// and histogram, and the per-CPU counters), each node's cache counters,
// and each CPU's final registers and pc. The monitor dispatches nothing:
// the checked run fires exactly the unchecked run's events.
func compareSleep(t *testing.T, bench string, sys System, procs, scale int, cfgEdit func(*machine.Config)) {
	t.Helper()
	ma, a := runCell(t, bench, sys, procs, scale, cfgEdit, awake)
	var fired [2]uint64
	for i, mode := range []cellMode{asleep, checked} {
		name := [...]string{"sleeping", "checked"}[i]
		ms, s := runCell(t, bench, sys, procs, scale, cfgEdit, mode)
		if !reflect.DeepEqual(a, s) {
			if a.Cycles != s.Cycles {
				t.Errorf("cycles: awake %d, %s %d", a.Cycles, name, s.Cycles)
			}
			if !reflect.DeepEqual(a.PerCPU, s.PerCPU) {
				t.Errorf("per-CPU counters differ:\nawake    %+v\n%-8s %+v", a.PerCPU, name, s.PerCPU)
			}
			if !reflect.DeepEqual(a.Stats, s.Stats) {
				for i := range a.Stats.Nodes {
					if !reflect.DeepEqual(a.Stats.Nodes[i], s.Stats.Nodes[i]) {
						t.Errorf("node %d stats differ:\nawake    %+v\n%-8s %+v", i, a.Stats.Nodes[i], name, s.Stats.Nodes[i])
						break
					}
				}
				t.Errorf("machine stats differ")
			}
			t.FailNow()
		}
		for i := 0; i < procs; i++ {
			na, ns := ma.Fabric().Node(i), ms.Fabric().Node(i)
			for lvl, pair := range [][2]any{{*na.L1(), *ns.L1()}, {*na.L2(), *ns.L2()}} {
				if !reflect.DeepEqual(pair[0], pair[1]) {
					t.Fatalf("%s: node %d L%d arrays differ (stamps, clock or counters)", name, i, lvl+1)
				}
			}
			ca, cs := ma.CPU(i), ms.CPU(i)
			if ca.PC() != cs.PC() {
				t.Fatalf("CPU %d pc: awake %d, %s %d", i, ca.PC(), name, cs.PC())
			}
			for r := isa.Reg(0); r < isa.NumRegs; r++ {
				if ca.Reg(r) != cs.Reg(r) {
					t.Fatalf("CPU %d r%d: awake %d, %s %d", i, r, ca.Reg(r), name, cs.Reg(r))
				}
			}
		}
		fired[i] = ms.Engine().Fired()
	}
	if fa := ma.Engine().Fired(); fired[0] > fa {
		t.Fatalf("sleeping run dispatched %d events, more than the awake run's %d", fired[0], fa)
	}
	if fired[1] != fired[0] {
		t.Fatalf("checked run dispatched %d events, the unchecked run %d", fired[1], fired[0])
	}
}

// TestSleepingMatchesAwake: on every system and every Table 2 benchmark,
// a run whose spinning processors sleep is indistinguishable from one
// that dispatches every iteration.
func TestSleepingMatchesAwake(t *testing.T) {
	for _, sys := range Systems() {
		for _, spec := range workload.Specs() {
			t.Run(sys.Name+"/"+spec.Name, func(t *testing.T) {
				compareSleep(t, spec.Name, sys, 8, 4, nil)
			})
		}
	}
	// The software queue locks spin with plain loads; under IQOLB those
	// reads are answered by tear-offs.
	for _, sys := range []System{
		{Name: "ticket-iqolb", Primitive: synclib.PrimTicket, Mode: core.ModeIQOLB, Retention: true, TearOff: true},
		{Name: "mcs-iqolb", Primitive: synclib.PrimMCS, Mode: core.ModeIQOLB, Retention: true, TearOff: true},
	} {
		for _, bench := range []string{"raytrace", "radiosity"} {
			t.Run(sys.Name+"/"+bench, func(t *testing.T) {
				compareSleep(t, bench, sys, 8, 4, nil)
			})
		}
	}
	for _, sys := range []System{SysTTS, SysQOLB, SysIQOLB} {
		t.Run(sys.Name+"/raytrace/p32", func(t *testing.T) {
			if testing.Short() {
				t.Skip("32-processor raytrace; runs without -short")
			}
			compareSleep(t, "raytrace", sys, 32, 4, nil)
		})
	}
	// A two-cycle L1 hit makes a spin iteration three cycles long, so the
	// engine passes its slots one at a time rather than in bulk.
	for _, sys := range []System{SysTTS, SysIQOLB} {
		t.Run(sys.Name+"/raytrace/l1hit2", func(t *testing.T) {
			compareSleep(t, "raytrace", sys, 8, 4, func(c *machine.Config) { c.Timing.L1Hit = 2 })
		})
	}
}

// TestSleepingSkipsTheHerd: the tts herd is where sleeping pays. On
// raytrace at 16 processors (0.70 M events awake, 0.06 M asleep) at least
// nine in ten events must go undispatched.
func TestSleepingSkipsTheHerd(t *testing.T) {
	ma, _ := runCell(t, "raytrace", SysTTS, 16, 4, nil, awake)
	ms, _ := runCell(t, "raytrace", SysTTS, 16, 4, nil, asleep)
	if fa, fs := ma.Engine().Fired(), ms.Engine().Fired(); fs*10 > fa {
		t.Fatalf("sleeping run dispatched %d of the awake run's %d events; want at most a tenth", fs, fa)
	}
}
