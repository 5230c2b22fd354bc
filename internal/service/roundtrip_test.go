package service

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// A roundtripShape is one way a client and its server talk: lock-step
// (window 1) or pipelined with a window, written through or, with a
// flush delay, coalesced on both ends.
type roundtripShape struct {
	name       string
	window     int
	flushDelay time.Duration
}

// dialShape boots an in-process server and dials one client connected
// in shape s; both close when tb ends.
func dialShape(tb testing.TB, s roundtripShape) *Client {
	tb.Helper()
	_, addr := startServerOpts(tb, nil, ServerOptions{Window: s.window, FlushDelay: s.flushDelay})
	cl, err := Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { cl.Close() })
	cl.SetOpTimeout(30 * time.Second)
	if s.window > 1 {
		if err := cl.Pipeline(s.window, s.flushDelay); err != nil {
			tb.Fatal(err)
		}
	}
	return cl
}

// acquireRelease is one op of every round-trip test and benchmark: a
// fenced acquire+release pair on res.
func acquireRelease(cl *Client, res, owner string) error {
	lease, err := cl.Acquire(res, owner, AcquireOptions{TTL: time.Second, Wait: true, MaxWait: 30 * time.Second})
	if err != nil {
		return err
	}
	return cl.ReleaseFenced(res, lease.Token, lease.Fence)
}

// The socket round trips over loopback TCP, for profiling the serving
// path in process:
//
//	go test -run '^$' -bench ServerRoundtripPipelined -benchtime 200000x \
//	    -cpuprofile /tmp/cpu.out -o /tmp/service.test ./internal/service
//	go tool pprof -top /tmp/service.test /tmp/cpu.out
//
// The timing the project reports comes from benchmark/, not from these.

// BenchmarkServerRoundtrip is the one-in-flight baseline: a lock-step
// client doing acquire+release pairs.
func BenchmarkServerRoundtrip(b *testing.B) { benchRoundtrip(b, roundtripShape{window: 1}) }

// BenchmarkServerRoundtripPipelined is the pipelined dispatch path: one
// connection, a 32-deep window, 32 concurrent actors on private
// resources, every frame written through.
func BenchmarkServerRoundtripPipelined(b *testing.B) {
	benchRoundtrip(b, roundtripShape{window: 32})
}

// BenchmarkServerRoundtripCoalesced is the same load with write
// coalescing on both ends. One connection is all the traffic there is,
// so whenever the window drains the connection goes quiet and the hold
// ends on quiescence rather than on its time-out.
func BenchmarkServerRoundtripCoalesced(b *testing.B) {
	benchRoundtrip(b, roundtripShape{window: 32, flushDelay: 50 * time.Microsecond})
}

// benchRoundtrip runs b.N acquire+release pairs in shape s, shared out
// over one actor per window slot, each on a private resource.
func benchRoundtrip(b *testing.B, s roundtripShape) {
	cl := dialShape(b, s)
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for a := 0; a < s.window; a++ {
		ops := b.N / s.window
		if a < b.N%s.window {
			ops++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, owner := fmt.Sprintf("res-bench-%d", a), fmt.Sprintf("owner-%d", a)
			for i := 0; i < ops; i++ {
				if err := acquireRelease(cl, res, owner); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
