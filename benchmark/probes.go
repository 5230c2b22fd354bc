package main

import (
	"bytes"
	"fmt"
	"time"
)

// The probes time single layers from outside, by calling their public
// functions; they run only in the traced run. Each fills per-layer
// metrics into m under a span of its own.

// probeFor is how long a probe that is bounded by time, not count, runs:
// a quarter of a repetition.
func probeFor(rc runConfig) time.Duration { return rc.rep / 4 }

// servingProbes splits one lock-step acquire round trip into the wire
// codec, the service core and the rest, and measures what the flush delay
// costs a lone op. The three terms sum to rt.lockstep_ns by construction:
// rt.transport_self_ns is what is left after the two that can be timed
// alone, and is what a later trace from inside the server refines.
func servingProbes(w *workload, rc runConfig, tr *tracer, parent int, m map[string]float64) error {
	if err := probeWire(w, tr, parent, m); err != nil {
		return fmt.Errorf("probe.wire: %w", err)
	}
	if err := probeCore(rc, tr, parent, m); err != nil {
		return fmt.Errorf("probe.core: %w", err)
	}
	if err := probeLockstep(rc, tr, parent, m); err != nil {
		return fmt.Errorf("probe.lockstep: %w", err)
	}
	m["rt.transport_self_ns"] = m["rt.lockstep_ns"] - m["core.acquire_ns"] - m["wire.encode_ns_per_op"] - m["wire.decode_ns_per_op"]
	if err := probeIdleHold(rc, tr, parent, m); err != nil {
		return fmt.Errorf("probe.idle_hold: %w", err)
	}
	return nil
}

// probeWire times the codec on the acquire request and granted response
// the workload's connections carry. One op is one round trip's worth:
// a request and a response, each encoded once and decoded once.
func probeWire(w *workload, tr *tracer, parent int, m map[string]float64) error {
	id := tr.begin("probe.wire", parent)
	defer tr.end(id)
	const n = 200000
	resource := "res-1-17"
	if w.hot {
		resource = "hot"
	}
	f := acquireFrames(w.window > 1, resource, "c1-w17")
	req, err := f.appendRequest(nil)
	if err != nil {
		return err
	}
	resp, err := f.appendResponse(nil)
	if err != nil {
		return err
	}
	m["wire.bytes_per_op"] = float64(len(req) + len(resp))

	buf := make([]byte, 0, 2048)
	before := readMemMark()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if _, err := f.appendRequest(buf[:0]); err != nil {
			return err
		}
		if _, err := f.appendResponse(buf[:0]); err != nil {
			return err
		}
	}
	t1 := time.Now()
	var rd bytes.Reader
	for i := 0; i < n; i++ {
		rd.Reset(req)
		if err := f.readRequest(&rd); err != nil {
			return err
		}
		rd.Reset(resp)
		if err := f.readResponse(&rd); err != nil {
			return err
		}
	}
	t2 := time.Now()
	m["wire.encode_ns_per_op"] = float64(t1.Sub(t0)) / n
	m["wire.decode_ns_per_op"] = float64(t2.Sub(t1)) / n
	m["wire.allocs_per_op"] = float64(readMemMark().mallocs-before.mallocs) / n
	return nil
}

// probeCore times Service.Acquire and ReleaseFenced called in-process on
// free resources: a batch of acquires, then the batch of releases, so
// neither loop reads the clock per call.
func probeCore(rc runConfig, tr *tracer, parent int, m map[string]float64) error {
	id := tr.begin("probe.core", parent)
	defer tr.end(id)
	c, err := newCore()
	if err != nil {
		return err
	}
	defer c.close()
	const batch = 512
	names := make([]string, batch)
	for i := range names {
		names[i] = fmt.Sprintf("res-0-%d", i)
	}
	leases := make([]lease, batch)
	var acq, rel time.Duration
	var n int
	for deadline := time.Now().Add(probeFor(rc)); n == 0 || time.Now().Before(deadline); n += batch {
		t0 := time.Now()
		for i, name := range names {
			if leases[i], err = c.acquire(name, "probe"); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for i, name := range names {
			if err = c.release(name, leases[i]); err != nil {
				return err
			}
		}
		acq += t1.Sub(t0)
		rel += time.Since(t1)
	}
	m["core.acquire_ns"] = float64(acq) / float64(n)
	m["core.release_ns"] = float64(rel) / float64(n)
	return nil
}

// probeLockstep times acquire round trips of one lock-step client against
// a write-through server on loopback, and counts the allocations of the
// whole exchange, both sides.
func probeLockstep(rc runConfig, tr *tracer, parent int, m map[string]float64) error {
	id := tr.begin("probe.lockstep", parent)
	defer tr.end(id)
	srv, err := startServer(serverOptions{})
	if err != nil {
		return err
	}
	defer srv.stop()
	c, err := dial(srv.addr, 1, 0, nil)
	if err != nil {
		return err
	}
	defer c.close()
	round := func() (time.Duration, error) {
		t0 := time.Now()
		l, err := c.acquire("res-0-0", "probe")
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		return d, c.release("res-0-0", l)
	}
	for i := 0; i < 200; i++ { // warm the connection, the decoder's interned names and the pools
		if _, err := round(); err != nil {
			return err
		}
	}
	var total time.Duration
	var n int
	before := readMemMark()
	for deadline := time.Now().Add(probeFor(rc)); n == 0 || time.Now().Before(deadline); n++ {
		d, err := round()
		if err != nil {
			return err
		}
		total += d
	}
	m["rt.lockstep_ns"] = float64(total) / float64(n)
	m["rt.allocs_per_op"] = float64(readMemMark().mallocs-before.mallocs) / float64(2*n)
	return nil
}

// probeIdleHold measures the hold one frame pays on an otherwise idle
// pipelined connection: the p50 of a lone acquire with the 50 us flush
// delay on both sides, minus the same with write-through. The timer's
// quantization in an idle process is part of what it measures.
func probeIdleHold(rc runConfig, tr *tracer, parent int, m map[string]float64) error {
	id := tr.begin("probe.idle_hold", parent)
	defer tr.end(id)
	lone := func(flush time.Duration) (float64, error) {
		srv, err := startServer(serverOptions{flush: flush, window: 64})
		if err != nil {
			return 0, err
		}
		defer srv.stop()
		c, err := dial(srv.addr, 64, flush, nil)
		if err != nil {
			return 0, err
		}
		defer c.close()
		var lat hist
		for deadline := time.Now().Add(probeFor(rc)); lat.n < 5 || time.Now().Before(deadline); {
			time.Sleep(time.Millisecond) // let the connection fall idle
			t0 := time.Now()
			l, err := c.acquire("res-0-0", "probe")
			lat.add(time.Since(t0))
			if err != nil {
				return 0, err
			}
			if err := c.release("res-0-0", l); err != nil {
				return 0, err
			}
		}
		return lat.quantile(0.5), nil
	}
	held, err := lone(flushDelay)
	if err != nil {
		return err
	}
	through, err := lone(0)
	if err != nil {
		return err
	}
	m["coalesce.idle_hold_us"] = (held - through) / 1e3
	return nil
}

// lockProbes measures every registered lock kind under the native_hot
// load, and the guard kind's uncontended cost and hand-off time.
func lockProbes(_ *workload, rc runConfig, tr *tracer, parent int, m map[string]float64) error {
	for _, kind := range lockKinds() {
		id := tr.begin("probe.locks."+kind, parent)
		lock, _, err := newLock(kind, false)
		if err != nil {
			return err
		}
		c := startContention(lock, rc.conns, 0, rc.seed)
		time.Sleep(probeFor(rc) / 4)
		t0, n0 := time.Now(), sumCounts(c.done())
		time.Sleep(probeFor(rc))
		t1, n1 := time.Now(), sumCounts(c.done())
		err = c.stop()
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		m["locks.ops_per_s."+kind] = 2 * float64(n1-n0) / t1.Sub(t0).Seconds()
	}

	id := tr.begin("probe.locks.uncontended", parent)
	lock, _, err := newLock(guardKind, false)
	if err != nil {
		return err
	}
	const pairs = 1 << 20
	t0 := time.Now()
	for i := 0; i < pairs; i++ {
		lock.Lock()
		lock.Unlock()
	}
	m["locks.uncontended_pair_ns"] = float64(time.Since(t0)) / pairs
	tr.end(id)

	id = tr.begin("probe.locks.handoff", parent)
	defer tr.end(id)
	lock, handoffP50, err := newLock(guardKind, true)
	if err != nil {
		return err
	}
	c := startContention(lock, rc.conns, 0, rc.seed)
	time.Sleep(probeFor(rc))
	if err := c.stop(); err != nil {
		return err
	}
	m["locks.handoff_p50_ns"] = handoffP50()
	return nil
}
