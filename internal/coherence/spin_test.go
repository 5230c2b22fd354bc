package coherence

import (
	"testing"

	"iqolb/internal/core"
	"iqolb/internal/engine"
	"iqolb/internal/interconnect"
	"iqolb/internal/mem"
)

// waker stands in for a sleeping processor: it counts its wakes and
// reports skipped reads to be charged.
type waker struct {
	skipped uint64
	wakes   int
}

func (w *waker) wake() uint64 { w.wakes++; return w.skipped }

// quietRig is a rig without a trace recorder: a recorder that wants the
// line forbids the watch.
func quietRig(t *testing.T, n int, cfg func() core.Config) *rig {
	r := newRig(t, n, cfg())
	r.f.rec, r.rec = nil, nil
	return r
}

// watchHit reads addr on node 0 until it hits in L1, then arms a watch for
// a read of kind returning v. The watch must be accepted as an L1 hit.
func watchHit(t *testing.T, r *rig, kind mem.AccessKind, addr mem.Addr, v uint64) *waker {
	t.Helper()
	r.sync(0, kind, addr, 0)
	r.sync(0, kind, addr, 0) // the L1 entry is installed by the first read
	w := &waker{skipped: 5}
	lat, tear, ok := r.f.Node(0).Watch(kind, addr, v, w.wake)
	if !ok || tear || lat != r.f.timing.L1Hit {
		t.Fatalf("Watch(%s %#x) = %d, tear %v, ok %v; want an L1 hit", kind, uint64(addr), lat, tear, ok)
	}
	return w
}

// charged asserts one wake that charged the skipped reads as L1 hits.
func charged(t *testing.T, r *rig, w *waker, before uint64) {
	t.Helper()
	if w.wakes != 1 {
		t.Fatalf("woken %d times, want once", w.wakes)
	}
	if got := r.st.Nodes[0].L1Hits - before; got < w.skipped {
		t.Fatalf("L1 hits rose %d, want at least the %d skipped reads", got, w.skipped)
	}
}

func TestWatchWakesOnSnoopInvalidation(t *testing.T) {
	r := quietRig(t, 2, baselineCfg)
	w := watchHit(t, r, mem.Load, 64, 0)
	hits, clock := r.st.Nodes[0].L1Hits, r.f.Node(0).L1().Hits
	r.sync(1, mem.Store, 64, 7)
	charged(t, r, w, hits)
	if got := r.f.Node(0).L1().Hits - clock; got != w.skipped {
		t.Fatalf("L1 array hits rose %d, want %d", got, w.skipped)
	}
	r.sync(1, mem.Store, 64, 8) // the watch fired once and is gone
	if w.wakes != 1 {
		t.Fatalf("a disarmed watch fired again (%d wakes)", w.wakes)
	}
}

func TestWatchWakesOnLinkReset(t *testing.T) {
	r := quietRig(t, 2, baselineCfg)
	w := watchHit(t, r, mem.LoadLinked, 64, 0)
	c := r.f.Node(0)
	lls := r.st.Nodes[0].LLCount
	r.sync(1, mem.Store, 64, 7) // invalidates the copy and the link with it
	if w.wakes != 1 || c.linkValid {
		t.Fatalf("wakes %d, link valid %v; want one wake and the link reset", w.wakes, c.linkValid)
	}
	if got := r.st.Nodes[0].LLCount - lls; got != w.skipped {
		t.Fatalf("LL count rose %d, want %d", got, w.skipped)
	}
}

func TestWatchWakesOnDowngrade(t *testing.T) {
	r := quietRig(t, 2, baselineCfg)
	r.sync(0, mem.Store, 64, 5)
	w := watchHit(t, r, mem.Load, 64, 5)
	hits := r.st.Nodes[0].L1Hits
	r.sync(1, mem.Load, 64, 0) // P0 supplies and drops M to O
	charged(t, r, w, hits)
	if got := r.f.Node(0).State(1); got != mem.Owned {
		t.Fatalf("P0 state %s, want O", got)
	}
}

// An install anywhere at the node moves the LRU stamps the skipped hits
// would have set, and may evict the watched line from L1 or L2: the wake
// charges the hits before the victim is chosen.
func TestWatchWakesOnInstallAndEviction(t *testing.T) {
	geo := DefaultCacheGeometry()
	for _, tc := range []struct {
		name   string
		stride mem.LineID // lines this far apart share a set
		ways   int
	}{
		{"L1", mem.LineID(geo.L1.Sets()), geo.L1.Ways},
		{"L2", mem.LineID(geo.L2.Sets()), geo.L2.Ways},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := quietRig(t, 1, baselineCfg)
			w := watchHit(t, r, mem.Load, 64, 0)
			hits := r.st.Nodes[0].L1Hits
			r.sync(0, mem.Load, (1 + tc.stride).Base(), 0)
			charged(t, r, w, hits)
			for k := 2; k <= tc.ways; k++ {
				r.sync(0, mem.Load, (1 + mem.LineID(k)*tc.stride).Base(), 0)
			}
			c := r.f.Node(0)
			if tc.name == "L1" && c.L1().Contains(1) || tc.name == "L2" && c.L2().Contains(1) {
				t.Fatalf("line 1 still in %s after %d conflicting fills", tc.name, tc.ways)
			}
		})
	}
}

func TestWatchWakesOnDegrade(t *testing.T) {
	r := quietRig(t, 2, baselineCfg)
	w := watchHit(t, r, mem.Load, 64, 0)
	hits := r.st.Nodes[0].L1Hits
	r.f.Degrade("test")
	charged(t, r, w, hits)
}

func TestSettleWakesEveryWatch(t *testing.T) {
	r := quietRig(t, 2, baselineCfg)
	w := watchHit(t, r, mem.Load, 64, 0)
	hits := r.st.Nodes[0].L1Hits
	r.f.Settle()
	charged(t, r, w, hits)
}

// tearSpin makes P1 wait on a lock P0 holds under IQOLB and arms P1's
// watch on its tear-off the moment the tear-off read completes. then runs
// in that same event, to change the line; P0 releases 2000 cycles later.
func tearSpin(t *testing.T, r *rig, w *waker, then func()) {
	t.Helper()
	trainLock(r, 0)
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(0, mem.StoreCond, 64, 1, func(mem.Result) {
			r.op(1, mem.LoadLinked, 64, 0, func(res mem.Result) {
				if !res.TearOff {
					t.Error("P1's read was not a tear-off")
					return
				}
				lat, tear, ok := r.f.Node(1).Watch(mem.LoadLinked, 64, res.Value, w.wake)
				if !ok || !tear || lat != r.f.timing.L1Hit {
					t.Errorf("Watch on the tear-off = %d, tear %v, ok %v", lat, tear, ok)
				}
				if then != nil {
					then()
				}
			})
			r.eng.After(2000, func(engine.Time) { r.op(0, mem.Store, 64, 0, nil) })
		})
	})
	r.run()
}

func TestWatchWakesOnTearOffFill(t *testing.T) {
	r := quietRig(t, 2, iqolbCfg)
	spins := uint64(0)
	w := &waker{skipped: 3}
	tearSpin(t, r, w, func() { spins = r.st.Nodes[1].LocalSpins })
	if w.wakes != 1 {
		t.Fatalf("woken %d times by the release's fill, want once", w.wakes)
	}
	if got := r.st.Nodes[1].LocalSpins - spins; got != w.skipped {
		t.Fatalf("local spins rose %d, want %d", got, w.skipped)
	}
}

// A plain read answered by a tear-off is resolved on the spot: the watch
// armed in its completion wakes when the miss retires, in the same event.
func TestWatchWakesOnTearOffResolution(t *testing.T) {
	r := quietRig(t, 2, iqolbCfg)
	trainLock(r, 0)
	w := &waker{}
	accepted := false
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(0, mem.StoreCond, 64, 1, func(mem.Result) {
			r.op(1, mem.Load, 64, 0, func(res mem.Result) {
				_, tear, ok := r.f.Node(1).Watch(mem.Load, 64, res.Value, w.wake)
				accepted = ok && tear
			})
			r.eng.After(2000, func(engine.Time) { r.op(0, mem.Store, 64, 0, nil) })
		})
	})
	r.run()
	if !accepted {
		t.Fatal("the tear-off read was not watchable while its miss was outstanding")
	}
	if w.wakes != 1 || r.f.Node(1).at(1).mshr != nil {
		t.Fatalf("woken %d times, miss outstanding %v; want one wake at the retire", w.wakes, r.f.Node(1).at(1).mshr != nil)
	}
}

func TestWatchWakesOnTearOffReplaced(t *testing.T) {
	r := quietRig(t, 2, iqolbCfg)
	var wakesAtReplace int
	w := &waker{skipped: 3}
	tearSpin(t, r, w, func() {
		r.eng.After(100, func(engine.Time) {
			r.f.Node(1).onData(interconnect.Msg{Kind: mem.DataTearOff, Line: 1, Data: mem.LineData{1}, From: 0, To: 1})
			wakesAtReplace = w.wakes
		})
	})
	if wakesAtReplace != 1 {
		t.Fatalf("a replacing tear-off woke the watch %d times, want once", wakesAtReplace)
	}
}

func TestWatchWakesOnSquash(t *testing.T) {
	r := quietRig(t, 3, func() core.Config {
		c := iqolbCfg()
		c.QueueRetention = false
		c.LockTimeout = 100000
		return c
	})
	var wakesAtSquash int
	w := &waker{skipped: 3}
	tearSpin(t, r, w, func() {
		r.op(2, mem.Store, 72, 7, func(mem.Result) { wakesAtSquash = w.wakes })
	})
	if r.st.Nodes[1].QueueBreakdowns == 0 {
		t.Fatal("P2's store did not squash P1's queued request")
	}
	if wakesAtSquash != 1 {
		t.Fatalf("the squash woke the watch %d times, want once", wakesAtSquash)
	}
}

// Watch refuses a read that would not repeat exactly.
func TestWatchRefuses(t *testing.T) {
	t.Run("recorder wants the line", func(t *testing.T) {
		r := newRig(t, 1, baselineCfg())
		r.sync(0, mem.Load, 64, 0)
		r.sync(0, mem.Load, 64, 0)
		if _, _, ok := r.f.Node(0).Watch(mem.Load, 64, 0, (&waker{}).wake); ok {
			t.Fatal("watched a line the recorder traces per read")
		}
	})
	t.Run("other value", func(t *testing.T) {
		r := quietRig(t, 1, baselineCfg)
		r.sync(0, mem.Load, 64, 0)
		r.sync(0, mem.Load, 64, 0)
		if _, _, ok := r.f.Node(0).Watch(mem.Load, 64, 9, (&waker{}).wake); ok {
			t.Fatal("watched a read whose value differs")
		}
	})
	t.Run("L2 hit", func(t *testing.T) {
		r := quietRig(t, 1, baselineCfg)
		r.sync(0, mem.Load, 64, 0)
		r.f.Node(0).L1().Invalidate(1)
		if _, _, ok := r.f.Node(0).Watch(mem.Load, 64, 0, (&waker{}).wake); ok {
			t.Fatal("watched a read that would refill L1")
		}
	})
	t.Run("link not set", func(t *testing.T) {
		r := quietRig(t, 1, baselineCfg)
		r.sync(0, mem.Load, 64, 0)
		r.sync(0, mem.Load, 64, 0)
		if _, _, ok := r.f.Node(0).Watch(mem.LoadLinked, 64, 0, (&waker{}).wake); ok {
			t.Fatal("watched an LL that would set the link")
		}
	})
	t.Run("acquire attempt not open", func(t *testing.T) {
		r := quietRig(t, 1, baselineCfg)
		r.f.RegisterLockAddr(64)
		r.sync(0, mem.LoadLinked, 64, 0)
		r.sync(0, mem.LoadLinked, 64, 0)
		delete(r.f.Node(0).acquireStart, 64)
		if _, _, ok := r.f.Node(0).Watch(mem.LoadLinked, 64, 0, (&waker{}).wake); ok {
			t.Fatal("watched an LL that would open an acquire attempt")
		}
	})
}
