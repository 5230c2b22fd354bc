package coherence

import (
	"testing"

	"iqolb/internal/core"
	"iqolb/internal/engine"
	"iqolb/internal/mem"
	"iqolb/internal/stats"
	"iqolb/internal/trace"
)

// rig bundles a small test machine driven directly at the controller level
// (no processors): operations chain through Done callbacks.
type rig struct {
	t   *testing.T
	eng *engine.Engine
	f   *Fabric
	st  *stats.Machine
	rec *trace.Recorder
}

func newRig(t *testing.T, n int, cfg core.Config) *rig {
	t.Helper()
	eng := engine.New()
	st := stats.NewMachine(n)
	rec := trace.NewRecorderAll()
	f, err := NewFabric(eng, DefaultTiming(), DefaultCacheGeometry(), cfg, n, st, rec)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{t: t, eng: eng, f: f, st: st, rec: rec}
}

func (r *rig) run() {
	r.t.Helper()
	if _, hit := r.eng.Run(10_000_000); hit {
		r.t.Fatal("rig run hit cycle limit (likely deadlock or livelock)")
	}
}

// op issues one access and returns a pointer that will hold the result.
func (r *rig) op(node int, kind mem.AccessKind, addr mem.Addr, val uint64, after func(mem.Result)) {
	r.f.Node(node).Access(mem.Request{
		Kind: kind, Addr: addr, Value: val, PC: 100 + node,
		Done: mem.DoneFunc(func(res mem.Result) {
			if after != nil {
				after(res)
			}
		}),
	})
}

// sync issues one access and runs the engine until it completes.
func (r *rig) sync(node int, kind mem.AccessKind, addr mem.Addr, val uint64) mem.Result {
	r.t.Helper()
	var out mem.Result
	done := false
	r.op(node, kind, addr, val, func(res mem.Result) { out = res; done = true })
	r.run()
	if !done {
		r.t.Fatalf("%s on P%d never completed", kind, node)
	}
	return out
}

func baselineCfg() core.Config { return core.DefaultConfig(core.ModeBaseline) }

func TestColdLoadFromMemory(t *testing.T) {
	r := newRig(t, 2, baselineCfg())
	r.f.Memory().Poke(64, 42)
	res := r.sync(0, mem.Load, 64, 0)
	if res.Value != 42 {
		t.Fatalf("load = %d, want 42", res.Value)
	}
	if got := r.f.Node(0).State(1); got != mem.Shared {
		t.Fatalf("state = %s, want S", got)
	}
	// One GETS, supplied by memory.
	if r.st.Nodes[0].TxIssued[mem.TxGETS] != 1 {
		t.Fatal("expected one GETS")
	}
	if r.f.Memory().Reads != 1 {
		t.Fatal("memory did not supply")
	}
	// Latency sanity: bus (12) + DRAM (68) + data (40) plus small constants.
	if r.eng.Now() < 120 || r.eng.Now() > 140 {
		t.Fatalf("cold miss took %d cycles, expected ~120", r.eng.Now())
	}
}

func TestStoreMissGetsExclusive(t *testing.T) {
	r := newRig(t, 2, baselineCfg())
	res := r.sync(0, mem.Store, 64, 7)
	_ = res
	if got := r.f.Node(0).State(1); got != mem.Modified {
		t.Fatalf("state = %s, want M", got)
	}
	if v, ok := r.f.Node(0).PeekWord(64); !ok || v != 7 {
		t.Fatalf("data = %d,%v want 7", v, ok)
	}
}

func TestDirtyDataMigratesCacheToCache(t *testing.T) {
	r := newRig(t, 2, baselineCfg())
	r.sync(0, mem.Store, 64, 99)
	res := r.sync(1, mem.Load, 64, 0)
	if res.Value != 99 {
		t.Fatalf("P1 load = %d, want 99 (dirty supply)", res.Value)
	}
	// Supplier downgrades M -> O, requester installs S.
	if got := r.f.Node(0).State(1); got != mem.Owned {
		t.Fatalf("P0 state = %s, want O", got)
	}
	if got := r.f.Node(1).State(1); got != mem.Shared {
		t.Fatalf("P1 state = %s, want S", got)
	}
	// Memory must not have been read for the second access.
	if r.f.Memory().Reads != 1 {
		t.Fatalf("memory reads = %d, want 1 (GETX only)", r.f.Memory().Reads)
	}
}

func TestGETXInvalidatesSharers(t *testing.T) {
	r := newRig(t, 3, baselineCfg())
	r.sync(0, mem.Load, 64, 0)
	r.sync(1, mem.Load, 64, 0)
	r.sync(2, mem.Store, 64, 5)
	if r.f.Node(0).State(1) != mem.Invalid || r.f.Node(1).State(1) != mem.Invalid {
		t.Fatal("sharers not invalidated by GETX")
	}
	if r.f.Node(2).State(1) != mem.Modified {
		t.Fatal("writer not M")
	}
	if v := r.sync(0, mem.Load, 64, 0); v.Value != 5 {
		t.Fatalf("stale read %d after invalidation", v.Value)
	}
}

func TestUpgradeFromShared(t *testing.T) {
	r := newRig(t, 2, baselineCfg())
	r.sync(0, mem.Load, 64, 0)
	r.sync(1, mem.Load, 64, 0)
	r.sync(0, mem.Store, 64, 3)
	if r.st.Nodes[0].TxIssued[mem.TxUPGR] != 1 {
		t.Fatal("store on S copy did not upgrade")
	}
	if r.f.Node(1).State(1) != mem.Invalid {
		t.Fatal("upgrade did not invalidate sharer")
	}
	if r.f.Node(0).State(1) != mem.Modified {
		t.Fatal("upgrader not M")
	}
}

func TestBaselineLLSCSuccess(t *testing.T) {
	r := newRig(t, 2, baselineCfg())
	if res := r.sync(0, mem.LoadLinked, 64, 0); res.Value != 0 {
		t.Fatal("LL value wrong")
	}
	res := r.sync(0, mem.StoreCond, 64, 1)
	if !res.OK {
		t.Fatal("uncontended SC failed")
	}
	// Baseline: GETS + UPGR = two transactions.
	n := &r.st.Nodes[0]
	if n.TxIssued[mem.TxGETS] != 1 || n.TxIssued[mem.TxUPGR] != 1 {
		t.Fatalf("tx mix = GETS %d UPGR %d, want 1/1", n.TxIssued[mem.TxGETS], n.TxIssued[mem.TxUPGR])
	}
	if n.SCSuccess != 1 || n.SCFail != 0 {
		t.Fatal("SC accounting wrong")
	}
}

func TestSCFailsAfterInterveningWrite(t *testing.T) {
	r := newRig(t, 2, baselineCfg())
	r.sync(0, mem.LoadLinked, 64, 0)
	r.sync(1, mem.Store, 64, 9) // invalidates P0's copy, resets link
	res := r.sync(0, mem.StoreCond, 64, 1)
	if res.OK {
		t.Fatal("SC succeeded despite intervening write")
	}
	if v := r.sync(1, mem.Load, 64, 0); v.Value != 9 {
		t.Fatalf("value = %d, want 9 (SC must not have written)", v.Value)
	}
}

func TestSCFailsWithoutLL(t *testing.T) {
	r := newRig(t, 1, baselineCfg())
	if res := r.sync(0, mem.StoreCond, 64, 1); res.OK {
		t.Fatal("SC without LL succeeded")
	}
}

func TestContendedSCExactlyOneWins(t *testing.T) {
	r := newRig(t, 2, baselineCfg())
	// Both LL the same word, then both SC.
	var ok0, ok1 bool
	var done int
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(0, mem.StoreCond, 64, 1, func(res mem.Result) { ok0 = res.OK; done++ })
	})
	r.op(1, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(1, mem.StoreCond, 64, 2, func(res mem.Result) { ok1 = res.OK; done++ })
	})
	r.run()
	if done != 2 {
		t.Fatal("ops incomplete")
	}
	if ok0 == ok1 {
		t.Fatalf("exactly one SC must win: P0=%v P1=%v", ok0, ok1)
	}
}

func TestSwapAtomicExchange(t *testing.T) {
	r := newRig(t, 2, baselineCfg())
	r.f.Memory().Poke(64, 5)
	res := r.sync(0, mem.SwapOp, 64, 7)
	if res.Value != 5 {
		t.Fatalf("swap old = %d, want 5", res.Value)
	}
	if v := r.sync(1, mem.Load, 64, 0); v.Value != 7 {
		t.Fatalf("swapped value = %d, want 7", v.Value)
	}
}

func TestWritebackOnEviction(t *testing.T) {
	r := newRig(t, 1, baselineCfg())
	// L2 is 512KB 4-way, 2048 sets: lines k*2048 collide. Fill 5 ways.
	base := mem.Addr(0)
	step := mem.Addr(2048 * mem.LineSize)
	for i := 0; i < 5; i++ {
		r.sync(0, mem.Store, base+mem.Addr(i)*step, uint64(i+1))
	}
	if r.f.Memory().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", r.f.Memory().Writebacks)
	}
	// The evicted line's data must have reached memory.
	if v := r.f.Memory().Peek(base); v != 1 {
		t.Fatalf("memory = %d, want 1", v)
	}
	// And reloading it must see the written value.
	if res := r.sync(0, mem.Load, base, 0); res.Value != 1 {
		t.Fatalf("reload = %d, want 1", res.Value)
	}
}

// --- LPRFO / delayed-response behaviour ---

func delayedCfg() core.Config { return core.DefaultConfig(core.ModeDelayed) }

func TestLPRFOSingleTransactionRMW(t *testing.T) {
	r := newRig(t, 2, delayedCfg())
	r.sync(0, mem.LoadLinked, 64, 0)
	res := r.sync(0, mem.StoreCond, 64, 1)
	if !res.OK {
		t.Fatal("SC failed")
	}
	n := &r.st.Nodes[0]
	if n.TxIssued[mem.TxLPRFO] != 1 || n.TxIssued[mem.TxUPGR] != 0 || n.TxIssued[mem.TxGETS] != 0 {
		t.Fatalf("tx mix LPRFO=%d UPGR=%d GETS=%d, want 1/0/0",
			n.TxIssued[mem.TxLPRFO], n.TxIssued[mem.TxUPGR], n.TxIssued[mem.TxGETS])
	}
}

func TestDelayedResponseHoldsLineThroughSC(t *testing.T) {
	r := newRig(t, 2, delayedCfg())
	// P0 LLs (gets the line exclusively). P1 LLs the same word: its LPRFO
	// must be delayed until P0's SC completes; then both SCs succeed with
	// no retries.
	var p0sc, p1sc bool
	var p1Val uint64 = 999
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		// Issue P1's LL as soon as P0 has its copy; then P0 SCs a bit later.
		r.op(1, mem.LoadLinked, 64, 0, func(res mem.Result) {
			p1Val = res.Value
			r.op(1, mem.StoreCond, 64, res.Value+1, func(res2 mem.Result) { p1sc = res2.OK })
		})
		r.eng.After(100, func(engine.Time) {
			r.op(0, mem.StoreCond, 64, 1, func(res mem.Result) { p0sc = res.OK })
		})
	})
	r.run()
	if !p0sc {
		t.Fatal("P0 SC failed")
	}
	if !p1sc {
		t.Fatal("P1 SC failed (queue hand-off broken)")
	}
	if p1Val != 1 {
		t.Fatalf("P1 read %d, want 1 (P0's RMW must be ordered first)", p1Val)
	}
	if got := r.sync(1, mem.Load, 64, 0).Value; got != 2 {
		t.Fatalf("final value %d, want 2", got)
	}
	if r.st.Nodes[0].DelaysStarted == 0 {
		t.Fatal("no delay was started")
	}
	if r.st.Nodes[0].SCFail+r.st.Nodes[1].SCFail != 0 {
		t.Fatal("delayed response should avoid SC retries")
	}
}

func TestDelayTimeoutForcesForward(t *testing.T) {
	cfg := delayedCfg()
	cfg.SCTimeout = 200
	r := newRig(t, 2, cfg)
	var p1Done bool
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		// P0 never SCs. P1 must still get the line via the time-out.
		r.op(1, mem.LoadLinked, 64, 0, func(res mem.Result) {
			r.op(1, mem.StoreCond, 64, 5, func(res2 mem.Result) { p1Done = res2.OK })
		})
	})
	r.run()
	if !p1Done {
		t.Fatal("time-out did not forward the line")
	}
	if r.st.Nodes[0].DelayTimeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", r.st.Nodes[0].DelayTimeouts)
	}
}

func TestThreeNodeQueueFormsInBusOrder(t *testing.T) {
	r := newRig(t, 3, delayedCfg())
	var order []int
	chain := func(node int) {
		r.op(node, mem.LoadLinked, 64, 0, func(res mem.Result) {
			r.op(node, mem.StoreCond, 64, res.Value+1, func(res2 mem.Result) {
				if res2.OK {
					order = append(order, node)
				}
			})
		})
	}
	// P0 first, then P1 and P2 while P0's RMW is pending.
	chain(0)
	r.eng.At(5, func(engine.Time) { chain(1) })
	r.eng.At(10, func(engine.Time) { chain(2) })
	r.run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("completion order %v, want [0 1 2] (bus-order queue)", order)
	}
	if got := r.sync(0, mem.Load, 64, 0).Value; got != 3 {
		t.Fatalf("final counter %d, want 3", got)
	}
}

// --- IQOLB behaviour ---

func iqolbCfg() core.Config { return core.DefaultConfig(core.ModeIQOLB) }

// trainLock teaches node's predictor that PC 100+node is a lock acquire.
func trainLock(r *rig, node int) {
	r.f.Node(node).Policy().Predictor().TrainLock(100 + node)
}

func TestIQOLBHoldsThroughReleaseAndSendsTearOff(t *testing.T) {
	r := newRig(t, 2, iqolbCfg())
	r.f.RegisterLockAddr(64)
	trainLock(r, 0)
	var events []string
	var p1TearVal uint64 = 99
	// P0 acquires the lock; P1 requests while held; P0 releases later.
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(0, mem.StoreCond, 64, 1, func(res mem.Result) {
			if !res.OK {
				t.Error("P0 acquire failed")
			}
			events = append(events, "p0-acquired")
			// P1 tries while held.
			r.op(1, mem.LoadLinked, 64, 0, func(res2 mem.Result) {
				if res2.TearOff {
					p1TearVal = res2.Value
					events = append(events, "p1-tearoff")
				} else {
					events = append(events, "p1-data")
				}
			})
			// Release after a long critical section.
			r.eng.After(500, func(engine.Time) {
				r.op(0, mem.Store, 64, 0, func(mem.Result) {
					events = append(events, "p0-released")
				})
			})
		})
	})
	r.run()
	if p1TearVal != 1 {
		t.Fatalf("tear-off value = %d, want 1 (lock held)", p1TearVal)
	}
	want := []string{"p0-acquired", "p1-tearoff", "p0-released"}
	if len(events) != 3 {
		t.Fatalf("events %v", events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Fatalf("events %v, want %v", events, want)
		}
	}
	// After release the line must be at P1 (forwarded), with lock value 0.
	if v, ok := r.f.Node(1).PeekWord(64); !ok || v != 0 {
		t.Fatalf("P1 copy = %d,%v; want 0,true (release-triggered hand-off)", v, ok)
	}
	if r.st.Nodes[0].TearOffsOut != 1 || r.st.Nodes[1].TearOffsIn != 1 {
		t.Fatal("tear-off accounting wrong")
	}
	if r.st.Nodes[0].DelayTimeouts != 0 {
		t.Fatal("release hand-off must not be a timeout")
	}
}

func TestIQOLBUntrainedPCFallsBackToDelayedResponse(t *testing.T) {
	r := newRig(t, 2, iqolbCfg())
	// No training: the first acquire is classified Fetch&Phi, so the line
	// is forwarded right after the SC (not held till release).
	var p1GotLine bool
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(1, mem.LoadLinked, 64, 0, func(res mem.Result) {
			if !res.TearOff {
				p1GotLine = true
			}
		})
		r.eng.After(100, func(engine.Time) {
			r.op(0, mem.StoreCond, 64, 1, nil)
		})
	})
	r.run()
	if !p1GotLine {
		t.Fatal("untrained acquire held the line past SC")
	}
}

func TestIQOLBPredictorLearnsFromReleaseStore(t *testing.T) {
	r := newRig(t, 1, iqolbCfg())
	pol := r.f.Node(0).Policy()
	// Acquire (SC) then release (store): PC 100 must become a lock.
	r.sync(0, mem.LoadLinked, 64, 0)
	r.sync(0, mem.StoreCond, 64, 1)
	if pol.Predictor().PredictLock(100) {
		t.Fatal("predicted lock before any release")
	}
	r.sync(0, mem.Store, 64, 0)
	if !pol.Predictor().PredictLock(100) {
		t.Fatal("release store did not train the predictor")
	}
	if r.st.Nodes[0].LockReleases == 0 {
		t.Fatal("release not counted")
	}
}

func TestIQOLBWaiterSpinsLocallyOnTearOff(t *testing.T) {
	r := newRig(t, 2, iqolbCfg())
	trainLock(r, 0)
	spins := 0
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(0, mem.StoreCond, 64, 1, func(mem.Result) {
			var spinLoop func(mem.Result)
			spinLoop = func(res mem.Result) {
				if res.Value == 0 {
					return // lock observed free
				}
				spins++
				if spins > 10000 {
					t.Error("spin did not terminate")
					return
				}
				// Re-read after a short pause, as a spin loop would.
				r.eng.After(10, func(engine.Time) {
					r.op(1, mem.LoadLinked, 64, 0, spinLoop)
				})
			}
			r.op(1, mem.LoadLinked, 64, 0, spinLoop)
			r.eng.After(2000, func(engine.Time) {
				r.op(0, mem.Store, 64, 0, nil)
			})
		})
	})
	r.run()
	if spins < 5 {
		t.Fatalf("spins = %d, want several local re-reads", spins)
	}
	// Local spinning must not generate extra bus transactions.
	if got := r.st.Nodes[1].TxIssued[mem.TxLPRFO]; got != 1 {
		t.Fatalf("P1 issued %d LPRFOs while spinning, want 1", got)
	}
	if r.st.Nodes[1].LocalSpins == 0 {
		t.Fatal("local spins not counted")
	}
}

func TestQueueBreakdownWithoutRetention(t *testing.T) {
	cfg := iqolbCfg()
	cfg.QueueRetention = false
	cfg.LockTimeout = 100000
	r := newRig(t, 3, cfg)
	trainLock(r, 0)
	// P0 holds the lock's line as holder; P1 queues an LPRFO; P2 issues a
	// plain store to collocated data on the same line -> breakdown.
	var p1Res mem.Result
	var p1Completed bool
	var p1Spin func(res mem.Result)
	p1Spin = func(res mem.Result) {
		if res.TearOff || res.Value != 0 {
			// Lock still held (possibly via tear-off): keep spinning.
			r.eng.After(10, func(engine.Time) { r.op(1, mem.LoadLinked, 64, 0, p1Spin) })
			return
		}
		p1Res = res
		p1Completed = true
	}
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(0, mem.StoreCond, 64, 1, func(mem.Result) {
			r.op(1, mem.LoadLinked, 64, 0, p1Spin)
			r.eng.After(300, func(engine.Time) {
				r.op(2, mem.Store, 72, 7, nil) // collocated word
			})
			r.eng.After(600, func(engine.Time) {
				r.op(0, mem.Store, 64, 0, nil) // release
			})
		})
	})
	r.run()
	if r.st.Nodes[1].QueueBreakdowns == 0 {
		t.Fatal("no breakdown recorded at the squashed waiter")
	}
	if !p1Completed {
		t.Fatal("P1's reissued request never completed")
	}
	if p1Res.Value != 0 {
		t.Fatalf("P1 finally saw %d, want 0 after release", p1Res.Value)
	}
}

func TestQueueRetentionLoansAndReturns(t *testing.T) {
	cfg := iqolbCfg()
	cfg.QueueRetention = true
	cfg.LockTimeout = 100000
	r := newRig(t, 3, cfg)
	trainLock(r, 0)
	var p1GotOwnership, p2StoreDone bool
	var p1Spin func(res mem.Result)
	p1Spin = func(res mem.Result) {
		if res.TearOff || res.Value != 0 {
			r.eng.After(10, func(engine.Time) { r.op(1, mem.LoadLinked, 64, 0, p1Spin) })
			return
		}
		p1GotOwnership = true
	}
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(0, mem.StoreCond, 64, 1, func(mem.Result) {
			r.op(1, mem.LoadLinked, 64, 0, p1Spin)
			// P2 writes collocated data: must be served via loan without
			// dissolving P1's queue position.
			r.eng.After(300, func(engine.Time) {
				r.op(2, mem.Store, 72, 7, func(mem.Result) { p2StoreDone = true })
			})
			r.eng.After(1000, func(engine.Time) {
				r.op(0, mem.Store, 64, 0, nil) // release
			})
		})
	})
	r.run()
	if !p2StoreDone {
		t.Fatal("collocated store starved")
	}
	if !p1GotOwnership {
		t.Fatal("queue head never received the line after release")
	}
	if r.st.Nodes[1].QueueBreakdowns != 0 {
		t.Fatal("retention mode must not break the queue down")
	}
	if r.st.Nodes[0].RetentionTrips == 0 && r.st.Nodes[2].RetentionTrips == 0 {
		t.Fatal("no retention loan recorded")
	}
	// The collocated write must have landed in the line P1 received.
	if v, ok := r.f.Node(1).PeekWord(72); !ok || v != 7 {
		t.Fatalf("collocated word at P1 = %d,%v; want 7", v, ok)
	}
}

func TestAggressiveModeUsesGETXForLL(t *testing.T) {
	r := newRig(t, 2, core.DefaultConfig(core.ModeAggressive))
	r.sync(0, mem.LoadLinked, 64, 0)
	res := r.sync(0, mem.StoreCond, 64, 1)
	if !res.OK {
		t.Fatal("SC failed")
	}
	n := &r.st.Nodes[0]
	if n.TxIssued[mem.TxGETX] != 1 || n.TxIssued[mem.TxGETS] != 0 || n.TxIssued[mem.TxUPGR] != 0 {
		t.Fatalf("aggressive LL tx mix GETX=%d GETS=%d UPGR=%d, want 1/0/0",
			n.TxIssued[mem.TxGETX], n.TxIssued[mem.TxGETS], n.TxIssued[mem.TxUPGR])
	}
}

// --- explicit QOLB ---

func TestQOLBGrantAndHandoff(t *testing.T) {
	r := newRig(t, 3, baselineCfg())
	r.f.RegisterLockAddr(64)
	var order []int
	acquire := func(node int, then func()) {
		r.op(node, mem.EnqolbOp, 64, 0, func(res mem.Result) {
			order = append(order, node)
			if then != nil {
				then()
			}
		})
	}
	release := func(node int) {
		r.op(node, mem.DeqolbOp, 64, 0, nil)
	}
	acquire(0, func() {
		acquire(1, nil)
		acquire(2, nil)
		r.eng.After(200, func(engine.Time) { release(0) })
	})
	r.eng.At(3000, func(engine.Time) {
		if len(order) >= 2 {
			release(1)
		}
	})
	r.eng.At(6000, func(engine.Time) {
		if len(order) >= 3 {
			release(2)
		}
	})
	r.run()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("grant order %v, want [0 1 2]", order)
	}
	if r.f.QOLB().Handoffs != 2 {
		t.Fatalf("handoffs = %d, want 2", r.f.QOLB().Handoffs)
	}
	// The lock line migrates with the grant.
	if !r.f.Node(2).State(1).CanWrite() {
		t.Fatal("final holder lacks the lock line")
	}
}

func TestQOLBUncontendedReacquire(t *testing.T) {
	r := newRig(t, 1, baselineCfg())
	for i := 0; i < 3; i++ {
		res := r.sync(0, mem.EnqolbOp, 64, 0)
		if !res.OK {
			t.Fatal("grant failed")
		}
		r.sync(0, mem.DeqolbOp, 64, 0)
	}
	if r.f.QOLB().ImmediateOK != 3 {
		t.Fatalf("immediate grants = %d, want 3", r.f.QOLB().ImmediateOK)
	}
	// Re-acquires after the first must not touch memory again.
	if r.f.Memory().Reads > 1 {
		t.Fatalf("memory reads = %d, want <= 1", r.f.Memory().Reads)
	}
}

// TestEvictionForwardsDelayedLine checks the paper's rule that evicting a
// line with queued requests is treated as a time-out: P0 holds a predicted
// lock with P1's LPRFO delayed behind it, then touches enough conflicting
// lines to push the lock line out of its L2 set. The line must go to P1,
// not to memory, and nothing may be left behind.
func TestEvictionForwardsDelayedLine(t *testing.T) {
	cfg := iqolbCfg()
	cfg.LockTimeout = 1_000_000
	r := newRig(t, 2, cfg)
	trainLock(r, 0)
	step := mem.Addr(2048 * mem.LineSize) // same L2 set, 4 ways
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(0, mem.StoreCond, 64, 1, func(mem.Result) {
			r.op(1, mem.LoadLinked, 64, 0, nil)
			r.eng.After(300, func(engine.Time) {
				var fill func(i int)
				fill = func(i int) {
					if i > 4 {
						return
					}
					r.op(0, mem.Store, 64+mem.Addr(i)*step, uint64(i), func(mem.Result) { fill(i + 1) })
				}
				fill(1)
			})
		})
	})
	r.run()
	if v, ok := r.f.Node(1).PeekWord(64); !ok || v != 1 {
		t.Fatalf("evicted lock line did not reach the queued requester:\n%s", r.f.DebugLine(1))
	}
	if got := r.st.Nodes[0].DelayEvictions; got != 1 {
		t.Fatalf("DelayEvictions = %d, want 1", got)
	}
	if got := r.st.Nodes[0].DelayTimeouts; got != 0 {
		t.Fatalf("DelayTimeouts = %d, want 0 (the eviction, not the timer, ended the delay)", got)
	}
	CheckQuiescent(t, r.f)
}

// --- cross-cutting invariants ---

// checkSingleWriter asserts the MOESI single-writer/multi-reader invariant
// across all nodes for the given line.
func checkSingleWriter(t *testing.T, r *rig, line mem.LineID) {
	t.Helper()
	writers, owners := 0, 0
	for i := range r.f.nodes {
		s := r.f.Node(i).State(line)
		if s.CanWrite() {
			writers++
		}
		if s.IsOwner() {
			owners++
		}
	}
	if writers > 1 {
		t.Fatalf("line %d has %d writers", line, writers)
	}
	if owners > 1 {
		t.Fatalf("line %d has %d owners", line, owners)
	}
}

func TestRandomStressInvariants(t *testing.T) {
	noRet := func(m core.Mode) core.Config {
		c := core.DefaultConfig(m)
		c.QueueRetention = false
		return c
	}
	noTear := func(m core.Mode) core.Config {
		c := core.DefaultConfig(m)
		c.TearOff = false
		return c
	}
	cfgs := map[string]core.Config{
		"baseline":        baselineCfg(),
		"aggressive":      core.DefaultConfig(core.ModeAggressive),
		"delayed":         delayedCfg(),
		"iqolb":           iqolbCfg(),
		"delayed-noret":   noRet(core.ModeDelayed),
		"iqolb-noret":     noRet(core.ModeIQOLB),
		"iqolb-notearoff": noTear(core.ModeIQOLB),
	}
	names := []string{"baseline", "aggressive", "delayed", "iqolb",
		"delayed-noret", "iqolb-noret", "iqolb-notearoff"}
	for _, name := range names {
		cfg := cfgs[name]
		t.Run(name, func(t *testing.T) {
			const nodes = 6
			r := newRig(t, nodes, cfg)
			// A deterministic pseudo-random mix of loads/stores/LL/SC/swap
			// from all nodes over a few contended lines, with invariant
			// checks at the end.
			seed := uint64(12345)
			next := func(n uint64) uint64 {
				seed ^= seed << 13
				seed ^= seed >> 7
				seed ^= seed << 17
				return seed % n
			}
			outstanding := 0
			kinds := []mem.AccessKind{
				mem.Load, mem.Store, mem.LoadLinked, mem.StoreCond,
				mem.LoadLinked, mem.StoreCond, mem.SwapOp,
			}
			var issue func(depth int)
			issue = func(depth int) {
				if depth == 0 {
					return
				}
				node := int(next(nodes))
				addr := mem.Addr(next(24) * 8) // 3 lines, 8 words each
				kind := kinds[next(uint64(len(kinds)))]
				outstanding++
				r.op(node, kind, addr, next(100), func(mem.Result) {
					outstanding--
					issue(depth - 1)
				})
			}
			for i := 0; i < 12; i++ {
				issue(150)
			}
			// The record's queue invariant, checked after every event: a
			// duty marked removed is never still queued.
			for r.eng.Step() {
				if r.eng.Now() > 10_000_000 {
					t.Fatal("rig run passed 10M cycles (likely livelock)")
				}
				for _, c := range r.f.nodes {
					for line, ls := range c.lines {
						for _, d := range ls.duties {
							if d.removed {
								t.Fatalf("%s line %d: removed duty still queued", c.id, line)
							}
						}
					}
				}
			}
			if outstanding != 0 {
				t.Fatalf("%d operations never completed", outstanding)
			}
			for line := mem.LineID(0); line < 3; line++ {
				checkSingleWriter(t, r, line)
			}
			CheckQuiescent(t, r.f)
			if r.f.Bus().Outstanding() != 0 {
				t.Fatalf("bus leaked %d outstanding slots", r.f.Bus().Outstanding())
			}
		})
	}
}

// --- the per-line records ---

// CheckQuiescent asserts that nothing is in flight anywhere in the machine:
// no record on any node holds an MSHR, a duty, a loan or a parked access,
// and no line is marked stuck. (Exported for the whole-machine runs in the
// external test package.)
func CheckQuiescent(t *testing.T, f *Fabric) {
	t.Helper()
	for _, c := range f.nodes {
		for line, ls := range c.lines {
			if ls.mshr != nil || len(ls.duties) > 0 || ls.loanedOut || len(ls.loanWait) > 0 {
				t.Errorf("%s not quiescent on line %d:\n%s", c.id, line, f.DebugLine(line))
			}
		}
	}
	for line, e := range f.dir {
		if e.stuck {
			t.Errorf("line %d still marked stuck", line)
		}
	}
}

// TestUntrackedLinesCostNothing runs a contended hand-off among three of 32
// nodes. The other 29 snoop every transaction and must end with no record
// at all; reading an untracked line yields the zero record without creating
// one, and a write to that copy reaches nothing.
func TestUntrackedLinesCostNothing(t *testing.T) {
	r := newRig(t, 32, iqolbCfg())
	trainLock(r, 0)
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(0, mem.StoreCond, 64, 1, func(mem.Result) {
			r.op(1, mem.LoadLinked, 64, 0, nil)
			r.op(2, mem.Store, 72, 7, nil)
			r.eng.After(500, func(engine.Time) { r.op(0, mem.Store, 64, 0, nil) })
		})
	})
	r.run()
	CheckQuiescent(t, r.f)
	for i, c := range r.f.nodes {
		want := 0
		if i < 3 {
			want = 1
		}
		if len(c.lines) != want {
			t.Errorf("%s tracks %d lines, want %d", c.id, len(c.lines), want)
		}
	}
	bystander := r.f.Node(31)
	ls := bystander.at(1)
	if ls.data != nil || ls.mshr != nil || ls.duties != nil || ls.loanedOut || ls.loanWait != nil {
		t.Fatalf("untracked line reads as %+v, want the zero record", ls)
	}
	ls.loanedOut = true
	if bystander.at(1).loanedOut || len(bystander.lines) != 0 {
		t.Fatal("a write to an untracked line's record reached the controller")
	}
}

// TestDebugLineRendersKnownState pins DebugLine on one snapshot that shows
// every part of the record: P0 holds the lock and has lent the line to P2's
// collocated store (retention), P1's LPRFO is the delayed duty still queued
// at P0, and P1 spins on its tear-off (a fragile link) with the miss
// outstanding.
func TestDebugLineRendersKnownState(t *testing.T) {
	cfg := iqolbCfg()
	cfg.LockTimeout = 100000
	r := newRig(t, 3, cfg)
	trainLock(r, 0)
	r.op(0, mem.LoadLinked, 64, 0, func(mem.Result) {
		r.op(0, mem.StoreCond, 64, 1, func(mem.Result) {
			r.op(1, mem.LoadLinked, 64, 0, nil)
			r.eng.After(300, func(engine.Time) { r.op(2, mem.Store, 72, 7, nil) })
			r.eng.After(1000, func(engine.Time) { r.op(0, mem.Store, 64, 0, nil) })
		})
	})
	var got string
	for r.eng.Step() {
		if got == "" && r.f.Node(0).at(1).loanedOut {
			got = r.f.DebugLine(1)
		}
	}
	want := "line 1 (base 0x40): owner=P1 holder=P0\n" +
		"  P0: state=I LOANED-OUT(waiters=0) holding-lock" +
		" duty{LPRFO from P1 delayed=true inService=false removed=false loan=false}\n" +
		"  P1: state=I mshr{tx=LPRFO observed=true opDone=true tear=true pending=0} linked(fragile=true)\n" +
		"  P2: state=I mshr{tx=GETX observed=true opDone=false tear=false pending=0}\n"
	if got != want {
		t.Fatalf("DebugLine:\n%s\nwant:\n%s", got, want)
	}
	CheckQuiescent(t, r.f)
}
