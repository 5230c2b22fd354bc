package service

import (
	"bytes"
	"testing"
	"time"
)

// The zero-allocation contract of the hot-path codec: encoding appends
// into a caller-owned buffer and steady-state decoding reuses the
// Decoder's scratch and interned names. These are regression tests, not
// benchmarks — a refactor that sneaks an allocation into the codec
// fails here long before it shows up in a throughput sweep.

func TestEncodeAllocs(t *testing.T) {
	req := Request{
		Version:  WireVersion3,
		ID:       42,
		Op:       OpAcquire,
		Resource: "res-alloc",
		Owner:    "owner-alloc",
		TTL:      5 * time.Second,
		MaxWait:  time.Second,
		Wait:     true,
		Deadline: 1234567890,
	}
	resp := Response{
		Version:  WireVersion3,
		ID:       42,
		Op:       OpGranted,
		Token:    7,
		Fence:    9,
		Deadline: 1234567890,
	}
	buf := make([]byte, 0, wireHeaderLen+MaxPayload)
	if n := testing.AllocsPerRun(200, func() {
		out, err := AppendRequest(buf[:0], req)
		if err != nil || len(out) == 0 {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendRequest allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		out, err := AppendResponse(buf[:0], resp)
		if err != nil || len(out) == 0 {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendResponse allocates %.1f/op, want 0", n)
	}
}

func TestDecodeAllocs(t *testing.T) {
	reqFrame, err := AppendRequest(nil, Request{
		Version:  WireVersion3,
		ID:       42,
		Op:       OpAcquire,
		Resource: "res-alloc",
		Owner:    "owner-alloc",
		TTL:      5 * time.Second,
		Wait:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	respFrame, err := AppendResponse(nil, Response{
		Version:  WireVersion3,
		ID:       42,
		Op:       OpGranted,
		Token:    7,
		Fence:    9,
		Deadline: 1234567890,
	})
	if err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder()
	r := bytes.NewReader(nil)
	// Warm up: the first decode of each name interns it (one allocation,
	// amortized over the connection's lifetime).
	r.Reset(reqFrame)
	if _, err := dec.ReadRequest(r); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(reqFrame)
		if _, err := dec.ReadRequest(r); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state ReadRequest allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		r.Reset(respFrame)
		if _, err := dec.ReadResponse(r); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state ReadResponse allocates %.1f/op, want 0", n)
	}
}

// TestPipelinedOpAllocs holds a whole round trip (encode, write,
// server dispatch, response demux) to its allocation contract in every
// connection shape: at most 2 allocations per acquire+release, which is
// what each shape measures — the service's lease bookkeeping is real,
// but frame buffers, reply channels and op timers are all pooled.
// Counts are exact on any machine, so the bound has no headroom: one
// allocation slipping into the codec, router or coalescer fails here.
// The race detector allocates for its own bookkeeping, so under -race
// only the round trips themselves are checked.
func TestPipelinedOpAllocs(t *testing.T) {
	for _, s := range []roundtripShape{
		{name: "lockstep", window: 1},
		{name: "window4", window: 4},
		{name: "window4_flush50us", window: 4, flushDelay: 50 * time.Microsecond},
	} {
		t.Run(s.name, func(t *testing.T) {
			cl := dialShape(t, s)
			pair := func() {
				if err := acquireRelease(cl, "res-alloc", "owner-alloc"); err != nil {
					t.Fatal(err)
				}
			}
			// Warm up pools, interner, and the connection's server-side state.
			for i := 0; i < 50; i++ {
				pair()
			}
			n := testing.AllocsPerRun(200, pair)
			const budget = 2
			if !raceEnabled && n > budget {
				t.Errorf("acquire+release allocates %.1f/op, want at most %d", n, budget)
			}
		})
	}
}

// TestQueuedAcquireAllocs holds the split acquire to its allocation
// contract in-process: a decided acquire+release allocates only the
// core's lease bookkeeping, and a queued acquire handed the lease by a
// release adds only the core's waiter record and, with a MaxWait, the
// clock's timer. The doorbell and the Pending are recycled.
func TestQueuedAcquireAllocs(t *testing.T) {
	svc, err := New(Config{Shards: 1, NoSweeper: true})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	decided := testing.AllocsPerRun(200, func() {
		l, err := svc.Acquire("free", "o", AcquireOptions{})
		if err != nil {
			t.Fatal(err)
		}
		svc.Release("free", l.Token)
	})
	timer := testing.AllocsPerRun(200, func() { svc.clock.NewTimer(time.Minute).Stop() })
	holder, err := svc.Acquire("hot", "h", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, mw := range []time.Duration{0, time.Minute} {
		handoff := func() {
			_, p, err := svc.Admit("hot", "w", AcquireOptions{Wait: true, MaxWait: mw})
			if p == nil {
				t.Fatalf("acquire of a held resource not queued: %v", err)
			}
			if err := svc.Release("hot", holder.Token); err != nil {
				t.Fatal(err)
			}
			if holder, err = p.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		handoff() // warm the pool
		n := testing.AllocsPerRun(200, handoff)
		budget := decided + 1 // the core's waiter record
		if mw > 0 {
			budget += timer
		}
		if !raceEnabled && n > budget {
			t.Errorf("MaxWait %v: queued acquire+hand-off allocates %.1f/op, want at most %.1f", mw, n, budget)
		}
	}
}
