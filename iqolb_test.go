package iqolb_test

import (
	"strings"
	"testing"

	"iqolb"
)

func TestRunQuick(t *testing.T) {
	res, err := iqolb.RunSpec(iqolb.Spec{
		Bench: "hotlock", System: iqolb.SystemIQOLB.Name, Procs: 4, Scale: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.System != "iqolb" {
		t.Fatalf("bad result: %+v", res)
	}
}

func TestSystemsAndBenchmarksEnumerate(t *testing.T) {
	if len(iqolb.Systems()) < 8 {
		t.Fatal("missing systems")
	}
	if len(iqolb.Benchmarks()) != 5 {
		t.Fatal("want the five Table 2 benchmarks")
	}
	if len(iqolb.Microbenchmarks()) < 3 {
		t.Fatal("missing microbenchmarks")
	}
	if _, err := iqolb.BenchmarkByName("barnes"); err != nil {
		t.Fatal(err)
	}
	if _, err := iqolb.SystemByName("qolb"); err != nil {
		t.Fatal(err)
	}
}

func TestAssembleAndRunMachine(t *testing.T) {
	prog, err := iqolb.Assemble(`
	  cpuid t0
	  sll   t0, t0, 3
	  li    t1, 4096
	  add   t1, t1, t0
	  li    t2, 7
	  sw    t2, 0(t1)      # each cpu writes its own word
	  bar   1
	  halt
	`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := iqolb.NewMachine(iqolb.DefaultMachineConfig(4, iqolb.ModeBaseline), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.HitLimit {
		t.Fatal("hit limit")
	}
	for i := 0; i < 4; i++ {
		if got := m.Peek(iqolb.Addr(4096 + 8*i)); got != 7 {
			t.Fatalf("cpu %d word = %d, want 7", i, got)
		}
	}
}

func TestBuilderAPI(t *testing.T) {
	b := iqolb.NewBuilder()
	b.Li(2, 42).Halt()
	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := iqolb.NewMachine(iqolb.DefaultMachineConfig(1, iqolb.ModeBaseline), prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if m.CPU(0).Reg(2) != 42 {
		t.Fatal("builder program did not execute")
	}
}

func TestTablesRenderViaFacade(t *testing.T) {
	if !strings.Contains(iqolb.Table1(), "Table 1") {
		t.Error("Table1 broken")
	}
	if !strings.Contains(iqolb.Table2(), "Table 2") {
		t.Error("Table2 broken")
	}
}

func TestRunParamsCustomSignature(t *testing.T) {
	p := iqolb.WorkloadParams{
		Iterations: 1, TotalCS: 64, Locks: 2, HotPct: 50,
		CSWork: 10, ThinkWork: 100,
	}
	res, err := iqolb.RunParams("custom", p, iqolb.SystemDelayed, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 {
		t.Fatal("no cycles")
	}
}
