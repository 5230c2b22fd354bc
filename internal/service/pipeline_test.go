package service

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPipelinedRoundTrips drives many concurrent ops through one
// pipelined client: every acquire/release pair must resolve correctly
// even though responses come back in completion order, not send order.
func TestPipelinedRoundTrips(t *testing.T) {
	_, addr := startServerOpts(t, func(cfg *Config) { cfg.Shards = 8 }, ServerOptions{})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetOpTimeout(5 * time.Second)
	if err := cl.Pipeline(16, 0); err != nil {
		t.Fatal(err)
	}
	if err := cl.Pipeline(16, 0); err == nil {
		t.Fatal("double Pipeline accepted")
	}

	const workers = 16
	const opsEach = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := fmt.Sprintf("res-%d", w%4)
			owner := fmt.Sprintf("w%d", w)
			for i := 0; i < opsEach; i++ {
				lease, err := cl.Acquire(res, owner, AcquireOptions{TTL: 5 * time.Second, Wait: true, MaxWait: 5 * time.Second})
				if err != nil {
					errs <- fmt.Errorf("acquire: %w", err)
					return
				}
				if lease.Fence == 0 {
					errs <- errors.New("pipelined grant missing fence")
					return
				}
				if err := cl.ReleaseFenced(res, lease.Token, lease.Fence); err != nil {
					errs <- fmt.Errorf("release: %w", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPipelinedCoalesced is the same workload with write coalescing on
// both ends: correctness must be identical with the flush delay held.
func TestPipelinedCoalesced(t *testing.T) {
	_, addr := startServerOpts(t, nil, ServerOptions{FlushDelay: 200 * time.Microsecond, Window: 8})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetOpTimeout(5 * time.Second)
	if err := cl.Pipeline(8, 200*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				lease, err := cl.Acquire("hot", fmt.Sprintf("w%d", w), AcquireOptions{TTL: 5 * time.Second, Wait: true, MaxWait: 5 * time.Second})
				if err != nil {
					errs <- err
					return
				}
				if err := cl.ReleaseFenced("hot", lease.Token, lease.Fence); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPipelinedInterop holds a v2 lock-step client and a v3 pipelined
// client against the same server: cross-version fencing must still
// order them, and the v2 client's one-in-flight discipline must be
// untouched by the pipelined connection beside it.
func TestPipelinedInterop(t *testing.T) {
	_, addr := startServerOpts(t, nil, ServerOptions{})
	v2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	v2.SetOpTimeout(2 * time.Second)
	v3, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer v3.Close()
	v3.SetOpTimeout(2 * time.Second)
	if err := v3.Pipeline(4, 0); err != nil {
		t.Fatal(err)
	}

	l2, err := v2.Acquire("shared", "v2", AcquireOptions{TTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v3.Acquire("shared", "v3", AcquireOptions{TTL: 5 * time.Second}); !errors.Is(err, ErrNoWait) {
		t.Fatalf("contended no-wait acquire over v3: %v, want ErrNoWait", err)
	}
	if err := v2.ReleaseFenced("shared", l2.Token, l2.Fence); err != nil {
		t.Fatal(err)
	}
	l3, err := v3.Acquire("shared", "v3", AcquireOptions{TTL: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if l3.Fence <= l2.Fence {
		t.Fatalf("fence not monotonic across versions: %d then %d", l2.Fence, l3.Fence)
	}
	if err := v3.ReleaseFenced("shared", l3.Token, l3.Fence); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedOpTimeout pins the per-op timer: with a server that
// never answers, a pipelined op must fail with a typed timeout that
// classifies as a transport fault (net.Error, Timeout() true), and a
// late response must not corrupt a later op.
func TestPipelinedOpTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- conn // read nothing, answer nothing
	}()
	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetOpTimeout(50 * time.Millisecond)
	if err := cl.Pipeline(2, 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = cl.Ping()
	if err == nil {
		t.Fatal("ping against a mute server succeeded")
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("pipelined timeout not a net.Error timeout: %v", err)
	}
	if !isTransport(err) {
		t.Fatalf("pipelined timeout not transport-class: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	select {
	case conn := <-accepted:
		conn.Close()
	default:
	}
}

// TestPipelinedWindowBackpressure verifies the window cap: with window
// W and a slow resource, at most W requests are outstanding at once.
func TestPipelinedWindowBackpressure(t *testing.T) {
	var inFlight, peak atomic.Int64
	be := &countingBackend{inFlight: &inFlight, peak: &peak}
	srv := NewServerWithOptions(be, ServerOptions{Window: 4})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetOpTimeout(5 * time.Second)
	if err := cl.Pipeline(16, 0); err != nil { // client window larger than server's
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Acquire("r", "o", AcquireOptions{TTL: time.Second})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 4 {
		t.Fatalf("peak in-flight %d exceeds server window 4", got)
	}
}

// countingBackend tracks concurrent Acquire calls.
type countingBackend struct {
	inFlight, peak *atomic.Int64
}

func (b *countingBackend) Acquire(resource, owner string, opt AcquireOptions) (Lease, error) {
	n := b.inFlight.Add(1)
	for {
		p := b.peak.Load()
		if n <= p || b.peak.CompareAndSwap(p, n) {
			break
		}
	}
	time.Sleep(2 * time.Millisecond) // hold the slot so overlap is observable
	b.inFlight.Add(-1)
	return Lease{Resource: resource, Owner: owner, Token: 1, Fence: 1, Deadline: time.Now().Add(time.Second)}, nil
}
func (b *countingBackend) ReleaseFenced(string, uint64, uint64) error { return nil }
func (b *countingBackend) Resume(string, uint64, uint64) (Lease, error) {
	return Lease{}, ErrNotHeld
}
func (b *countingBackend) Drain(time.Duration) error { return nil }
func (b *countingBackend) Close() error              { return nil }

// TestResilientPipelined shares one ResilientClient across goroutines
// with a pipelined window and checks reconnect-with-resume still works:
// kill the connection under it mid-workload and let the retry loop
// redial.
func TestResilientPipelined(t *testing.T) {
	srv, addr := startServerOpts(t, nil, ServerOptions{})
	rc := NewResilient(addr, ResilientOptions{
		OpTimeout: time.Second,
		Retry:     RetryPolicy{Initial: time.Millisecond, Cap: 8 * time.Millisecond, MaxAttempts: 10},
		Seed:      1,
		Pipeline:  8,
	})
	defer rc.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := fmt.Sprintf("r%d", w%2)
			for i := 0; i < 20; i++ {
				lease, err := rc.Acquire(res, fmt.Sprintf("w%d", w), AcquireOptions{TTL: 5 * time.Second, Wait: true, MaxWait: 2 * time.Second})
				if err != nil {
					errs <- fmt.Errorf("acquire: %w", err)
					return
				}
				if err := rc.Release(lease); err != nil {
					errs <- fmt.Errorf("release: %w", err)
					return
				}
			}
		}(w)
	}
	// Yank every live server-side connection partway through; the
	// resilient layer must redial (pipelined again) and finish.
	time.Sleep(20 * time.Millisecond)
	srv.mu.Lock()
	for conn := range srv.conns {
		conn.Close()
	}
	srv.mu.Unlock()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if rc.Stats().Dials == 0 {
		t.Fatal("no dials recorded")
	}
}

// TestFlushWriterCoalesces pins the coalescer itself: frames written
// within the delay window arrive as one Write call, and a zero delay
// writes through immediately.
func TestFlushWriterCoalesces(t *testing.T) {
	var rec writeRecorder
	fw := newFlushWriter(&rec, 2*time.Millisecond)
	for i := 0; i < 5; i++ {
		if err := fw.WriteFrame([]byte{byte(i), 1, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if calls := rec.calls(); calls >= 5 {
		t.Fatalf("coalescer made %d writes for 5 frames", calls)
	}
	if got := rec.bytes(); got != 20 {
		t.Fatalf("wrote %d bytes, want 20", got)
	}

	rec = writeRecorder{}
	fw = newFlushWriter(&rec, 0)
	fw.WriteFrame([]byte{1, 2, 3})
	if rec.calls() != 1 {
		t.Fatalf("write-through made %d writes, want 1", rec.calls())
	}
	fw.Close()
	if err := fw.WriteFrame([]byte{9}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after close: %v, want net.ErrClosed", err)
	}
}

// writeRecorder counts Write calls and bytes.
type writeRecorder struct {
	mu  sync.Mutex
	n   int
	buf bytes.Buffer
}

func (r *writeRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	return r.buf.Write(p)
}
func (r *writeRecorder) calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
func (r *writeRecorder) bytes() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Len()
}

// TestFlushWriterError pins sticky error propagation: once the sink
// fails, every subsequent WriteFrame reports it.
func TestFlushWriterError(t *testing.T) {
	boom := errors.New("boom")
	fw := newFlushWriter(failingWriter{err: boom}, 0)
	if err := fw.WriteFrame([]byte{1}); !errors.Is(err, boom) {
		t.Fatalf("first write: %v, want boom", err)
	}
	if err := fw.WriteFrame([]byte{2}); !errors.Is(err, boom) {
		t.Fatalf("sticky error lost: %v", err)
	}
	fw.Close()
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }
