package workload

import (
	"math/rand"
	"testing"

	"iqolb/internal/core"
	"iqolb/internal/machine"
	"iqolb/internal/mem"
	"iqolb/internal/synclib"
)

func runKernel(t *testing.T, p Params, prim synclib.Primitive, mode core.Mode, procs int) (*machine.Machine, *Build, machine.Result) {
	t.Helper()
	bld, err := Generate(p, prim, procs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig(procs, mode)
	cfg.CycleLimit = 200_000_000
	m, err := machine.New(cfg, bld.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range bld.Locks {
		m.RegisterLockAddr(l)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.HitLimit {
		t.Fatal("hit cycle limit")
	}
	return m, bld, res
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Iterations: 0, TotalCS: 1, Locks: 1},
		{Iterations: 1, TotalCS: 1, Locks: 0},
		{Iterations: 1, TotalCS: 1, Locks: 1, HotPct: 101},
		{Iterations: 1, TotalCS: -1, Locks: 1},
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted", p)
		}
	}
}

func TestGenerateRejectsIndivisibleWork(t *testing.T) {
	p := Params{Iterations: 1, TotalCS: 10, Locks: 1}
	if _, err := Generate(p, synclib.PrimTTS, 3); err == nil {
		t.Fatal("indivisible TotalCS accepted")
	}
}

func TestGenerateRejectsTicketCollocation(t *testing.T) {
	p := Params{Iterations: 1, TotalCS: 8, Locks: 1, Collocate: true}
	if _, err := Generate(p, synclib.PrimTicket, 2); err == nil {
		t.Fatal("ticket+collocation accepted")
	}
}

func TestKernelCountersExact(t *testing.T) {
	p := Params{
		Iterations: 2, TotalCS: 64, Locks: 4, HotPct: 50,
		CSWork: 10, ThinkWork: 50, ThinkJitter: 30, PrivateLines: 2,
		BarriersPerIter: 1,
	}
	for _, prim := range []synclib.Primitive{synclib.PrimTTS, synclib.PrimQOLB, synclib.PrimTicket, synclib.PrimMCS} {
		for _, mode := range []core.Mode{core.ModeBaseline, core.ModeIQOLB} {
			if prim == synclib.PrimQOLB && mode != core.ModeBaseline {
				continue
			}
			t.Run(string(prim)+"-"+mode.String(), func(t *testing.T) {
				m, bld, _ := runKernel(t, p, prim, mode, 4)
				if err := bld.VerifyCounters(p, m.Peek); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestCollocatedKernel(t *testing.T) {
	p := Params{
		Iterations: 1, TotalCS: 64, Locks: 2, HotPct: 0,
		CSWork: 10, ThinkWork: 50, Collocate: true,
	}
	m, bld, _ := runKernel(t, p, synclib.PrimTTS, core.ModeIQOLB, 4)
	if err := bld.VerifyCounters(p, m.Peek); err != nil {
		t.Fatal(err)
	}
}

func TestAllSpecsRunSmall(t *testing.T) {
	// Every Table 2 signature must run correctly at a reduced scale under
	// TTS/baseline and TTS/IQOLB.
	for _, s := range Specs() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p := s.Params
			p.Iterations = 1
			p.TotalCS = 64
			m, bld, _ := runKernel(t, p, synclib.PrimTTS, core.ModeIQOLB, 4)
			if err := bld.VerifyCounters(p, m.Peek); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMicroSpecsRun(t *testing.T) {
	for _, s := range MicroSpecs() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p := s.Params
			p.TotalCS = 64
			m, bld, _ := runKernel(t, p, synclib.PrimTTS, core.ModeDelayed, 4)
			if err := bld.VerifyCounters(p, m.Peek); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("raytrace"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nullcs"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

// TestPickLockDistribution draws 10 000 seeded picks per signature. Every
// lock index is reached, no call makes more than two draws, and for a
// skewed signature the HotPct draw alone sends HotPct % ± 2 % of the
// picks to index 0.
func TestPickLockDistribution(t *testing.T) {
	const picks = 10_000
	for _, tc := range []struct {
		bench  string
		locks  int
		hotPct int
	}{
		{"multilock", 16, 0},
		{"hotlock", 1, 100},
		{"radiosity", 8, 60},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			spec, err := ByName(tc.bench)
			if err != nil {
				t.Fatal(err)
			}
			p := spec.Params
			if p.Locks != tc.locks || p.HotPct != tc.hotPct {
				t.Fatalf("%s: Locks %d HotPct %d, want %d %d", tc.bench, p.Locks, p.HotPct, tc.locks, tc.hotPct)
			}
			r := rand.New(rand.NewSource(7))
			hits := make([]int, p.Locks)
			hotDraws := 0 // picks settled by the HotPct draw alone
			for i := 0; i < picks; i++ {
				draws := 0
				idx := p.PickLock(func(n int64) int64 { draws++; return r.Int63n(n) })
				if draws > 2 {
					t.Fatalf("pick %d made %d draws", i, draws)
				}
				if idx < 0 || idx >= p.Locks {
					t.Fatalf("lock index %d out of range [0, %d)", idx, p.Locks)
				}
				hits[idx]++
				if draws == 1 && p.HotPct > 0 && p.HotPct < 100 {
					hotDraws++
				}
			}
			for idx, n := range hits {
				if n == 0 {
					t.Fatalf("lock %d never picked", idx)
				}
			}
			if p.HotPct > 0 && p.HotPct < 100 {
				if got := 100 * float64(hotDraws) / picks; got < float64(p.HotPct)-2 || got > float64(p.HotPct)+2 {
					t.Fatalf("HotPct draw sent %.1f%% of picks to lock 0, want %d%% ± 2%%", got, p.HotPct)
				}
			}
		})
	}
}

func TestSpecsDivisibleByPowerOfTwoProcs(t *testing.T) {
	for _, s := range Specs() {
		for _, procs := range []int{1, 2, 4, 8, 16, 32} {
			if s.Params.TotalCS%procs != 0 {
				t.Errorf("%s: TotalCS %d not divisible by %d", s.Name, s.Params.TotalCS, procs)
			}
		}
	}
}

func TestFetchAddKernel(t *testing.T) {
	bld, err := GenerateFetchAdd(240, 100, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig(6, core.ModeDelayed)
	cfg.CycleLimit = 50_000_000
	m, err := machine.New(cfg, bld.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFetchAdd(240, m.Peek); err != nil {
		t.Fatal(err)
	}
}

func TestFigureKernels(t *testing.T) {
	rmw, err := GenerateFigureRMW(5)
	if err != nil {
		t.Fatal(err)
	}
	cfg := machine.DefaultConfig(3, core.ModeDelayed)
	cfg.CycleLimit = 1_000_000
	m, err := machine.New(cfg, rmw.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(CounterAddr); got != 3 {
		t.Fatalf("figure RMW counter = %d, want 3", got)
	}

	lock, err := GenerateFigureLock(5, 100)
	if err != nil {
		t.Fatal(err)
	}
	cfgL := machine.DefaultConfig(3, core.ModeIQOLB)
	cfgL.Core.PredictorEntries = 0 // always-lock: single-shot figure kernel
	cfgL.CycleLimit = 1_000_000
	m2, err := machine.New(cfgL, lock.Program, nil)
	if err != nil {
		t.Fatal(err)
	}
	m2.RegisterLockAddr(LockBase)
	if _, err := m2.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m2.Peek(mem.Addr(LockBase)); got != 0 {
		t.Fatalf("lock = %d after all releases, want 0", got)
	}
}

func TestPollerKernel(t *testing.T) {
	// Half the machine polls protected data; the workers' counters must
	// still be exact, and pollers must retire their reads.
	p := Params{
		Iterations: 2, TotalCS: 32, Locks: 2, HotPct: 0,
		CSWork: 20, ThinkWork: 50,
		PollProcs: 2, PollReads: 16, PollThink: 10,
	}
	m, bld, res := runKernel(t, p, synclib.PrimTTS, core.ModeIQOLB, 4)
	if err := bld.VerifyCounters(p, m.Peek); err != nil {
		t.Fatal(err)
	}
	// Pollers are the top CPUs; they executed loads but no SCs.
	for cpu := 2; cpu < 4; cpu++ {
		if res.PerCPU[cpu].MemOps == 0 {
			t.Fatalf("poller %d executed no memory ops", cpu)
		}
	}
	if res.Stats.Nodes[2].SCSuccess+res.Stats.Nodes[3].SCSuccess != 0 {
		t.Fatal("pollers performed SCs")
	}
}

func TestPollerValidation(t *testing.T) {
	p := Params{Iterations: 1, TotalCS: 4, Locks: 1, PollProcs: 4}
	if _, err := Generate(p, synclib.PrimTTS, 4); err == nil {
		t.Fatal("all-poller machine accepted")
	}
	p2 := Params{Iterations: 1, TotalCS: 5, Locks: 1, PollProcs: 2}
	if _, err := Generate(p2, synclib.PrimTTS, 4); err == nil {
		t.Fatal("TotalCS not divisible by workers accepted")
	}
}

func TestMultiWriteCS(t *testing.T) {
	p := Params{
		Iterations: 1, TotalCS: 16, Locks: 1, CSWork: 40, CSWrites: 4,
	}
	m, bld, _ := runKernel(t, p, synclib.PrimTTS, core.ModeBaseline, 4)
	if bld.ExpectedCS != 64 {
		t.Fatalf("expected count %d, want 64 (16 CS x 4 writes)", bld.ExpectedCS)
	}
	if err := bld.VerifyCounters(p, m.Peek); err != nil {
		t.Fatal(err)
	}
}
