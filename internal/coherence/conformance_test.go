package coherence

import (
	"fmt"
	"testing"

	"iqolb/internal/core"
	"iqolb/internal/engine"
	"iqolb/internal/mem"
)

// Protocol conformance: for every reachable initial placement of one line
// across the caches, apply every access kind from a previously uninvolved
// node and check the resulting MOESI states, the value, and who supplied.
//
// Placements are established through ordinary operations (the protocol has
// no back door), so this also documents how each state arises:
//
//	uncached : nothing
//	S@1      : P1 load
//	S@1,2    : P1 and P2 load
//	M@1      : P1 store
//	O@1,S@2  : P1 store, P2 load
//	E@1      : P1 LL under delayed mode (exclusive clean from memory)
func TestProtocolConformance(t *testing.T) {
	type placement struct {
		name  string
		setup func(r *rig)
		// state of the line at P1/P2 after setup
		p1, p2 mem.State
	}
	const addr = mem.Addr(64)
	const line = mem.LineID(1)
	const initial = uint64(42)

	placements := []placement{
		{"uncached", func(r *rig) {}, mem.Invalid, mem.Invalid},
		{"S@1", func(r *rig) { r.sync(1, mem.Load, addr, 0) }, mem.Shared, mem.Invalid},
		{"S@1+S@2", func(r *rig) {
			r.sync(1, mem.Load, addr, 0)
			r.sync(2, mem.Load, addr, 0)
		}, mem.Shared, mem.Shared},
		{"M@1", func(r *rig) { r.sync(1, mem.Store, addr, initial) }, mem.Modified, mem.Invalid},
		{"O@1+S@2", func(r *rig) {
			r.sync(1, mem.Store, addr, initial)
			r.sync(2, mem.Load, addr, 0)
		}, mem.Owned, mem.Shared},
	}

	type access struct {
		name string
		kind mem.AccessKind
		val  uint64
		// wantP0 is P0's state after the access completes.
		wantP0 mem.State
		// invalidatesOthers: all other copies must be gone.
		invalidatesOthers bool
		// wantValue is the value the access must observe (loads) —
		// initial everywhere (setup wrote initial or memory holds it).
		checksValue bool
	}
	accesses := []access{
		{name: "load", kind: mem.Load, wantP0: mem.Shared, checksValue: true},
		{name: "store", kind: mem.Store, val: 7, wantP0: mem.Modified, invalidatesOthers: true},
		{name: "swap", kind: mem.SwapOp, val: 9, wantP0: mem.Modified, invalidatesOthers: true, checksValue: true},
	}

	for _, pl := range placements {
		for _, ac := range accesses {
			t.Run(pl.name+"/"+ac.name, func(t *testing.T) {
				r := newRig(t, 3, baselineCfg())
				r.f.Memory().Poke(addr, initial)
				pl.setup(r)
				if got := r.f.Node(1).State(line); got != pl.p1 {
					t.Fatalf("setup: P1 state %s, want %s", got, pl.p1)
				}
				if got := r.f.Node(2).State(line); got != pl.p2 {
					t.Fatalf("setup: P2 state %s, want %s", got, pl.p2)
				}
				res := r.sync(0, ac.kind, addr, ac.val)
				if ac.checksValue && res.Value != initial {
					t.Errorf("observed value %d, want %d", res.Value, initial)
				}
				if got := r.f.Node(0).State(line); got != ac.wantP0 {
					t.Errorf("P0 state %s, want %s", got, ac.wantP0)
				}
				if ac.invalidatesOthers {
					for n := 1; n <= 2; n++ {
						if got := r.f.Node(n).State(line); got != mem.Invalid {
							t.Errorf("P%d state %s after %s, want I", n, got, ac.name)
						}
					}
				}
				checkSingleWriter(t, r, line)
				// A follow-up read from P2 must observe the latest value
				// regardless of where it lives.
				want := initial
				if ac.kind == mem.Store {
					want = 7
				} else if ac.kind == mem.SwapOp {
					want = 9
				}
				if got := r.sync(2, mem.Load, addr, 0); got.Value != want {
					t.Errorf("P2 re-read %d, want %d", got.Value, want)
				}
				CheckQuiescent(t, r.f)
			})
		}
	}
}

// TestProtocolConformanceLL checks the LL-specific initial transaction per
// mode and the resulting states.
func TestProtocolConformanceLL(t *testing.T) {
	const addr = mem.Addr(64)
	const line = mem.LineID(1)
	cases := []struct {
		mode      core.Mode
		wantState mem.State
		wantTx    mem.TxKind
	}{
		{core.ModeBaseline, mem.Shared, mem.TxGETS},
		{core.ModeAggressive, mem.Exclusive, mem.TxGETX},
		{core.ModeDelayed, mem.Exclusive, mem.TxLPRFO},
		{core.ModeIQOLB, mem.Exclusive, mem.TxLPRFO},
	}
	for _, c := range cases {
		t.Run(c.mode.String(), func(t *testing.T) {
			r := newRig(t, 2, core.DefaultConfig(c.mode))
			r.f.Memory().Poke(addr, 5)
			res := r.sync(0, mem.LoadLinked, addr, 0)
			if res.Value != 5 {
				t.Fatalf("LL value %d, want 5", res.Value)
			}
			if got := r.f.Node(0).State(line); got != c.wantState {
				t.Errorf("state %s, want %s", got, c.wantState)
			}
			if got := r.st.Nodes[0].TxIssued[c.wantTx]; got != 1 {
				t.Errorf("issued %d %s, want 1", got, c.wantTx)
			}
			CheckQuiescent(t, r.f)
		})
	}
}

// TestSupplierSelection checks who supplies data in each placement: memory
// for clean lines, the owning cache for dirty ones.
func TestSupplierSelection(t *testing.T) {
	const addr = mem.Addr(64)
	t.Run("memory-supplies-clean", func(t *testing.T) {
		r := newRig(t, 3, baselineCfg())
		r.sync(1, mem.Load, addr, 0)
		r.sync(0, mem.Load, addr, 0)
		if r.f.Memory().Reads != 2 {
			t.Fatalf("memory reads = %d, want 2 (S copies do not supply)", r.f.Memory().Reads)
		}
	})
	t.Run("owner-supplies-dirty", func(t *testing.T) {
		r := newRig(t, 3, baselineCfg())
		r.sync(1, mem.Store, addr, 3)
		r.sync(0, mem.Load, addr, 0)
		r.sync(2, mem.Load, addr, 0)
		if r.f.Memory().Reads != 1 {
			t.Fatalf("memory reads = %d, want 1 (GETX only; O supplies the rest)", r.f.Memory().Reads)
		}
		if r.st.Nodes[1].DataSent[mem.DataShared] != 2 {
			t.Fatalf("owner supplied %d shared copies, want 2", r.st.Nodes[1].DataSent[mem.DataShared])
		}
	})
}

// TestWritebackRoundTrip checks that dirty evictions land in memory and a
// re-fetch observes the data, for every hardware mode.
func TestWritebackRoundTrip(t *testing.T) {
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModeIQOLB} {
		t.Run(mode.String(), func(t *testing.T) {
			r := newRig(t, 1, core.DefaultConfig(mode))
			step := mem.Addr(2048 * mem.LineSize)
			// Dirty five conflicting lines (4-way L2 set).
			for i := 0; i < 5; i++ {
				r.sync(0, mem.Store, mem.Addr(i)*step, uint64(100+i))
			}
			for i := 0; i < 5; i++ {
				if got := r.sync(0, mem.Load, mem.Addr(i)*step, 0); got.Value != uint64(100+i) {
					t.Fatalf("line %d read %d, want %d", i, got.Value, 100+i)
				}
			}
			if r.f.Memory().Writebacks == 0 {
				t.Fatal("no writebacks despite conflict misses")
			}
		})
	}
}

// TestValueInterleavings drives two writers and a reader through every
// relative order of a 3-op schedule and checks per-location coherence: the
// reader must observe one of the legal values, and the final value must be
// the later write.
func TestValueInterleavings(t *testing.T) {
	const addr = mem.Addr(64)
	for delay0 := 0; delay0 < 4; delay0++ {
		for delay1 := 0; delay1 < 4; delay1++ {
			name := fmt.Sprintf("d0=%d/d1=%d", delay0, delay1)
			t.Run(name, func(t *testing.T) {
				r := newRig(t, 3, baselineCfg())
				var readVal uint64
				var readDone bool
				r.eng.At(engine.Time(delay0*37), func(engine.Time) {
					r.op(0, mem.Store, addr, 111, nil)
				})
				r.eng.At(engine.Time(delay1*53+5), func(engine.Time) {
					r.op(1, mem.Store, addr, 222, nil)
				})
				r.eng.At(200, func(engine.Time) {
					r.op(2, mem.Load, addr, 0, func(res mem.Result) {
						readVal = res.Value
						readDone = true
					})
				})
				r.run()
				if !readDone {
					t.Fatal("read never completed")
				}
				if readVal != 0 && readVal != 111 && readVal != 222 {
					t.Fatalf("reader observed illegal value %d", readVal)
				}
				final := r.sync(2, mem.Load, addr, 0).Value
				if final != 111 && final != 222 {
					t.Fatalf("final value %d not one of the writes", final)
				}
			})
		}
	}
}
