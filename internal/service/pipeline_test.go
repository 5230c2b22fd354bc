package service

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
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
	// 40× the op timeout: this catches a timeout that never fires, and a
	// slow host cannot reach it.
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

// TestPipelinedNoHeadOfLineBlocking: a pipelined acquire that must wait
// occupies a worker, not the connection's read loop. With a window of
// one, an acquire queued on a held resource parks the sole worker and a
// second fills the worker channel's one slot; an acquire of a free
// resource sent after them on the same connection is still granted well
// within its op timeout, because admission decides it on the read loop.
func TestPipelinedNoHeadOfLineBlocking(t *testing.T) {
	srv, addr := startServerOpts(t, nil, ServerOptions{Window: 1})
	svc := srv.svc.(*Service)
	// Runs before the server's cleanup: the flush ends the parked waits,
	// so the connection's workers can finish.
	t.Cleanup(func() { svc.Close() })
	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.Acquire("hot", "holder", AcquireOptions{}); err != nil {
		t.Fatal(err)
	}
	// Raw frames on one connection: the read loop takes them in order.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(id uint64, res string) {
		t.Helper()
		frame, err := AppendRequest(nil, Request{Version: WireVersion3, ID: id, Op: OpAcquire, Resource: res, Owner: "a", Wait: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	send(1, "hot")
	waitAllQueued(t, svc, 1) // the sole worker is parked on it
	send(2, "hot")           // the worker channel's one slot
	send(3, "free")
	const opTimeout = 2 * time.Second
	conn.SetReadDeadline(time.Now().Add(opTimeout))
	resp, err := NewDecoder().ReadResponse(conn)
	if err != nil {
		t.Fatalf("free acquire behind two queued ones unanswered within %v: %v", opTimeout, err)
	}
	if resp.ID != 3 || resp.Op != OpGranted {
		t.Fatalf("first response %+v, want the free acquire (ID 3) granted", resp)
	}
	q := 0
	for _, sh := range svc.Snapshot().Shards {
		q += sh.Queued
	}
	if q != 2 {
		t.Fatalf("%d acquires queued on hot, want 2: the worker channel was not full", q)
	}
}

// rawPeer listens for one client connection; accept hands it to the
// test, which scripts the server's side of the wire by hand.
func rawPeer(t *testing.T) (addr string, accept func() net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ch := make(chan net.Conn, 1)
	go func() {
		if conn, err := ln.Accept(); err == nil {
			ch <- conn
		}
	}()
	return ln.Addr().String(), func() net.Conn {
		conn := <-ch
		t.Cleanup(func() { conn.Close() })
		return conn
	}
}

// grantFrame is a raw peer's grant of request id, carrying token.
func grantFrame(t *testing.T, id, token uint64) []byte {
	t.Helper()
	frame, err := AppendResponse(nil, Response{Version: WireVersion3, ID: id, Op: OpGranted, Token: token, Fence: token})
	if err != nil {
		t.Error(err)
	}
	return frame
}

// TestPipelinedLateReplyDroppedByGeneration: with a window of one, op 2
// reuses op 1's slot. Op 1's reply, held past op 1's timeout, reaches
// the client just before op 2's own reply; it names the slot's older
// generation, so it is dropped, and op 2 gets its own token.
func TestPipelinedLateReplyDroppedByGeneration(t *testing.T) {
	addr, accept := rawPeer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Pipeline(1, 0); err != nil {
		t.Fatal(err)
	}
	conn := accept()
	ids := make(chan uint64, 2)
	go func() {
		dec := NewDecoder()
		var got [2]uint64
		for i := range got {
			req, err := dec.ReadRequest(conn)
			if err != nil {
				return
			}
			got[i] = req.ID
			ids <- req.ID
		}
		// Only now, with op 1 timed out and op 2 sent, does op 1's
		// reply go out, right ahead of op 2's.
		conn.Write(append(grantFrame(t, got[0], 111), grantFrame(t, got[1], 222)...))
	}()

	cl.SetOpTimeout(50 * time.Millisecond)
	_, err = cl.Acquire("r", "o", AcquireOptions{})
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() || !isTransport(err) {
		t.Fatalf("op 1 against a peer holding its reply: %v, want a transport-class timeout", err)
	}
	cl.SetOpTimeout(2 * time.Second) // a hang detector only
	lease, err := cl.Acquire("r", "o", AcquireOptions{})
	if err != nil {
		t.Fatalf("op 2: %v", err)
	}
	if id1, id2 := <-ids, <-ids; id1 == id2 {
		t.Fatalf("both ops went out as ID %d", id1)
	}
	if lease.Token != 222 {
		t.Fatalf("op 2 got token %d, want its own 222 (111 is op 1's late reply)", lease.Token)
	}
}

// TestPipelinedEarlierDeadlineNotLost: the one deadline timer is set for
// op A's 10 s deadline when op B arrives with a 50 ms one; B must move
// it earlier, not wait behind A.
func TestPipelinedEarlierDeadlineNotLost(t *testing.T) {
	addr, accept := rawPeer(t) // reads nothing, answers nothing
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Pipeline(2, 0); err != nil {
		t.Fatal(err)
	}
	accept()
	cl.SetOpTimeout(10 * time.Second)
	aDone := make(chan error, 1)
	go func() { aDone <- cl.Ping() }()
	pl := cl.cur.Load().pl.Load()
	for pl.armed.Load() == 0 { // A is pending and the timer is set for it
		time.Sleep(time.Millisecond)
	}
	cl.SetOpTimeout(50 * time.Millisecond)
	bDone := make(chan error, 1)
	go func() { bDone <- cl.Ping() }()
	select {
	case err := <-bDone:
		var nerr net.Error
		if !errors.As(err, &nerr) || !nerr.Timeout() {
			t.Fatalf("op B: %v, want a typed timeout", err)
		}
	case <-aDone:
		t.Fatal("op A returned before op B")
	case <-time.After(2 * time.Second): // a hang detector, far below A's 10 s
		t.Fatal("op B's 50 ms deadline was lost behind op A's 10 s one")
	}
	cl.Close()
	if err := <-aDone; err == nil || !isTransport(err) {
		t.Fatalf("op A after Close: %v, want the transport failure", err)
	}
}

// TestPipelinedResolvesExactlyOnce: 32 goroutines share a window of 4
// against a peer that answers most ops at once, holds every fourth reply
// well past its op's timeout, and after 300 requests cuts a frame short
// and closes. Each op must end in exactly one of its own reply (the peer
// echoes the op's number as the token), a timeout, or the pipeline's
// sticky failure; an op issued after the failure gets that failure at
// once; and when every op has returned, every slot is free and no reply
// is left undelivered in any slot.
func TestPipelinedResolvesExactlyOnce(t *testing.T) {
	addr, accept := rawPeer(t)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const window, workers, requests = 4, 32, 300
	if err := cl.Pipeline(window, 0); err != nil {
		t.Fatal(err)
	}
	cl.SetOpTimeout(20 * time.Millisecond)
	conn := accept()
	go func() {
		var mu sync.Mutex // orders the peer's writes
		write := func(b []byte) {
			mu.Lock()
			conn.Write(b)
			mu.Unlock()
		}
		dec := NewDecoder()
		for n := 1; n <= requests; n++ {
			req, err := dec.ReadRequest(conn)
			if err != nil {
				return
			}
			var token uint64
			fmt.Sscan(req.Owner, &token)
			frame := grantFrame(t, req.ID, token)
			if n%4 == 0 {
				time.AfterFunc(100*time.Millisecond, func() { write(frame) })
			} else {
				write(frame)
			}
		}
		mu.Lock()
		conn.Write(grantFrame(t, 1, 0)[:5]) // a header and one byte of ID
		conn.Close()
		mu.Unlock()
	}()

	var replies, timeouts, failures atomic.Int64
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := 1; ; seq++ {
				token := uint64(w*1_000_000 + seq)
				lease, err := cl.Acquire("r", fmt.Sprint(token), AcquireOptions{})
				var nerr *opTimeoutError
				switch {
				case err == nil && lease.Token == token:
					replies.Add(1)
				case err == nil:
					errs <- fmt.Errorf("op %d got op %d's reply", token, lease.Token)
					return
				case errors.As(err, &nerr):
					timeouts.Add(1)
				default:
					failures.Add(1)
					e := cl.cur.Load().pl.Load().err.Load()
					if e == nil || err != *e {
						errs <- fmt.Errorf("op %d failed with %v, not the sticky failure", token, err)
						return
					}
					sticky := *e
					start := time.Now()
					if _, err := cl.Acquire("r", "after", AcquireOptions{}); err != sticky {
						errs <- fmt.Errorf("op after the failure: %v, want the sticky %v", err, sticky)
					} else if d := time.Since(start); d > time.Second {
						errs <- fmt.Errorf("op after the failure took %v to fail", d)
					}
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("ops still unresolved after 30 s")
	}
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// Every fourth reply is held 80 ms past its op's timeout, so at least
	// one op among the ~75 held ones times out unless the timer never fires.
	if replies.Load() == 0 || timeouts.Load() == 0 || failures.Load() != workers {
		t.Fatalf("%d replies, %d timeouts, %d failures; want some of the first two and one failure per worker",
			replies.Load(), timeouts.Load(), failures.Load())
	}
	pl := cl.cur.Load().pl.Load()
	if n := len(pl.free); n != window {
		t.Fatalf("%d of %d slots free after every op returned", n, window)
	}
	for i := range pl.slots {
		if s := &pl.slots[i]; s.word.Load()&1 != 0 || len(s.ch) != 0 {
			t.Fatalf("slot %d: word %#x, %d undelivered replies", i, s.word.Load(), len(s.ch))
		}
	}
}

// TestPipelinedGoroutines: a write-through pipelined client runs exactly
// one goroutine of its own, the router — an op waiting on its deadline
// adds none — and Close gives it back.
func TestPipelinedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	addr, accept := rawPeer(t) // reads nothing, answers nothing
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Pipeline(8, 0); err != nil {
		t.Fatal(err)
	}
	conn := accept()
	cl.SetOpTimeout(time.Minute)
	opDone := make(chan error, 1)
	go func() { opDone <- cl.Ping() }()
	for cl.cur.Load().pl.Load().armed.Load() == 0 { // the op is pending on its deadline
		time.Sleep(time.Millisecond)
	}
	pipelineGoroutines := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "created by iqolb/internal/service.(*wireConn).pipeline")
	}
	if n := pipelineGoroutines(); n != 1 {
		t.Fatalf("Pipeline started %d goroutines, want 1 (the router)", n)
	}
	cl.Close()
	select {
	case err := <-opDone:
		if err == nil {
			t.Fatal("op on a closed client succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close left the pending op unresolved")
	}
	conn.Close()
	waitGoroutines(t, before)
	if n := pipelineGoroutines(); n != 0 {
		t.Fatalf("%d pipeline goroutines left after Close", n)
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
	// Hold the slot so overlap is observable. The test asserts an upper
	// bound (peak ≤ window), so a host that never overlaps the calls only
	// weakens it; it cannot fail it.
	time.Sleep(2 * time.Millisecond)
	b.inFlight.Add(-1)
	return Lease{Resource: resource, Owner: owner, Token: 1, Fence: 1, Deadline: time.Now().Add(time.Second)}, nil
}
func (b *countingBackend) ReleaseFenced(string, uint64, uint64) error { return nil }
func (b *countingBackend) Resume(string, uint64, uint64) (Lease, error) {
	return Lease{}, ErrNotHeld
}
func (b *countingBackend) Drain(time.Duration) error { return nil }
func (b *countingBackend) Close() error              { return nil }

// TestResilientPipelined shares one Redial client across goroutines
// with a pipelined window and checks reconnect-with-resume still works:
// kill the connection under it mid-workload and let the retry loop
// redial.
func TestResilientPipelined(t *testing.T) {
	srv, addr := startServerOpts(t, nil, ServerOptions{})
	rc := Redial(addr, RetryPolicy{Initial: time.Millisecond, Cap: 8 * time.Millisecond, MaxAttempts: 10, Seed: 1})
	defer rc.Close()
	if err := rc.Pipeline(8, 0); err != nil {
		t.Fatal(err)
	}

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
				if err := rc.ReleaseFenced(lease.Resource, lease.Token, lease.Fence); err != nil {
					errs <- fmt.Errorf("release: %w", err)
					return
				}
			}
		}(w)
	}
	// Yank every live server-side connection partway through; the
	// client must redial (pipelined again, as TestResilientRedialKeepsWindow
	// checks) and finish. The sleep
	// only places the yank: early, late or mid-batch, every op must still
	// complete, so no interleaving fails the test.
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

// writeRecorder is the recording sink of the flushWriter tests: it keeps
// every Write's bytes and signals each call on wrote.
type writeRecorder struct {
	mu     sync.Mutex
	writes [][]byte
	wrote  chan struct{} // buffered past the writes any test makes
}

func newWriteRecorder() *writeRecorder {
	return &writeRecorder{wrote: make(chan struct{}, 1<<16)}
}

func (r *writeRecorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.writes = append(r.writes, append([]byte(nil), p...))
	r.mu.Unlock()
	r.wrote <- struct{}{}
	return len(p), nil
}

func (r *writeRecorder) snapshot() [][]byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([][]byte(nil), r.writes...)
}

// awaitWrite blocks until the sink has seen one more Write.
func (r *writeRecorder) awaitWrite(t *testing.T) {
	t.Helper()
	select {
	case <-r.wrote:
	case <-time.After(5 * time.Second):
		t.Fatal("no Write reached the sink")
	}
}

// farOff is a flush delay no test waits out: a hold that ends in time
// ended on an event.
const farOff = time.Minute

// TestFlushWriterIdleFrame: a lone frame on an idle writer leaves when
// the connection goes quiet, not when the delay runs out.
func TestFlushWriterIdleFrame(t *testing.T) {
	rec := newWriteRecorder()
	fw := newFlushWriter(rec, farOff)
	defer fw.Close()
	frame := []byte{7, 1, 0, 0}
	if err := fw.WriteFrame(frame); err != nil {
		t.Fatal(err)
	}
	rec.awaitWrite(t)
	if w := rec.snapshot(); len(w) != 1 || !bytes.Equal(w[0], frame) {
		t.Fatalf("sink saw %v, want the one frame", w)
	}
}

// TestFlushWriterBatchesRunnableProducers: on one P, producers that are
// runnable when the flusher first yields all run before it looks again,
// so their frames leave in one Write. Now and then a yield returns
// without running anyone (every 61st scheduling decision serves the
// global queue, where the yielder waits, ahead of the local one) and a
// round splits in two; that depends on the P's tick count, so it does
// not repeat on the next round, and three rounds in a row never split.
func TestFlushWriterBatchesRunnableProducers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const producers = 16
	var got [][]byte
	for attempt := 0; attempt < 3; attempt++ {
		rec := newWriteRecorder()
		fw := newFlushWriter(rec, farOff)
		var wg sync.WaitGroup
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				if err := fw.WriteFrame([]byte{byte(p), 1, 0, 0}); err != nil {
					t.Error(err)
				}
			}(p)
		}
		rec.awaitWrite(t) // blocks this goroutine: the producers, then the flusher, run
		wg.Wait()
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		if got = rec.snapshot(); len(got) == 1 {
			break
		}
	}
	if len(got) != 1 || len(got[0]) != 4*producers {
		t.Fatalf("%d runnable producers left in %d writes (first of %d bytes), want one write of %d bytes",
			producers, len(got), len(got[0]), 4*producers)
	}
}

// TestFlushWriterHoldBounds: each of the hold's three end conditions,
// made exact by standing in for the scheduler — every yield of the
// flusher runs the test's producer, so what each yield appends is known.
func TestFlushWriterHoldBounds(t *testing.T) {
	// firstWrite starts a hold with a one-byte frame, runs produce on
	// every yield, and returns the hold's Write and how long after the
	// first frame it came.
	firstWrite := func(t *testing.T, delay time.Duration, produce func(fw *flushWriter)) ([]byte, time.Duration) {
		rec := newWriteRecorder()
		fw := newFlushWriter(rec, delay)
		fw.yield = func() { produce(fw) } // read by the flusher only after the first kick
		start := time.Now()
		if err := fw.WriteFrame([]byte{1}); err != nil {
			t.Fatal(err)
		}
		rec.awaitWrite(t)
		held := time.Since(start)
		if err := fw.Close(); err != nil {
			t.Fatal(err)
		}
		return rec.snapshot()[0], held
	}
	appendFrame := func(t *testing.T, frame []byte) func(*flushWriter) {
		return func(fw *flushWriter) {
			if err := fw.WriteFrame(frame); err != nil {
				t.Error(err)
			}
		}
	}

	t.Run("quiescence", func(t *testing.T) {
		if w, _ := firstWrite(t, farOff, func(*flushWriter) {}); len(w) != 1 {
			t.Fatalf("first write of %d bytes, want the lone frame after one quiet yield", len(w))
		}
	})
	t.Run("delay", func(t *testing.T) {
		// A byte every 10 µs never lets the connection go quiet and
		// stays far below the threshold, so only the delay ends the hold.
		const delay = 200 * time.Microsecond
		tick := appendFrame(t, []byte{1})
		w, held := firstWrite(t, delay, func(fw *flushWriter) {
			time.Sleep(10 * time.Microsecond)
			tick(fw)
		})
		if held < delay || len(w) >= coalesceThreshold {
			t.Fatalf("hold ended after %v with %d bytes, want the %v delay to end it", held, len(w), delay)
		}
	})
	t.Run("threshold", func(t *testing.T) {
		w, _ := firstWrite(t, farOff, appendFrame(t, make([]byte, 1<<10)))
		if len(w) != 1+coalesceThreshold {
			t.Fatalf("first write of %d bytes, want the yield that reached %d bytes to end the batch at %d",
				len(w), coalesceThreshold, 1+coalesceThreshold)
		}
	})
}

// TestFlushWriterCloseFlushesInOrder: concurrent producers' frames reach
// the sink whole and in each producer's order, and Close returns only
// after everything accepted before it was written.
func TestFlushWriterCloseFlushesInOrder(t *testing.T) {
	const producers, each = 8, 200
	rec := newWriteRecorder()
	fw := newFlushWriter(rec, farOff)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for seq := 0; seq < each; seq++ {
				// [producer, seq, n, n bytes of producer]: a torn or
				// interleaved frame breaks the parse below.
				frame := append([]byte{byte(p), byte(seq), byte(p + 1)}, bytes.Repeat([]byte{byte(p)}, p+1)...)
				if err := fw.WriteFrame(frame); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	stream := bytes.Join(rec.snapshot(), nil)
	var next [producers]int
	for len(stream) > 0 {
		if len(stream) < 3 || len(stream) < 3+int(stream[2]) {
			t.Fatalf("torn frame at the end of the stream: % x", stream)
		}
		p, seq, n := int(stream[0]), int(stream[1]), int(stream[2])
		if p >= producers || n != p+1 || !bytes.Equal(stream[3:3+n], bytes.Repeat([]byte{byte(p)}, n)) {
			t.Fatalf("interleaved frame: % x", stream[:3+n])
		}
		if seq != next[p] {
			t.Fatalf("producer %d: frame %d arrived where %d was due", p, seq, next[p])
		}
		next[p]++
		stream = stream[3+n:]
	}
	for p, n := range next {
		if n != each {
			t.Fatalf("producer %d: %d of %d frames reached the sink before Close returned", p, n, each)
		}
	}
}

// TestFlushWriterWriteThrough: with no delay every frame is its own
// Write, made before WriteFrame returns.
func TestFlushWriterWriteThrough(t *testing.T) {
	rec := newWriteRecorder()
	fw := newFlushWriter(rec, 0)
	frames := [][]byte{{1, 2, 3}, {4}, {5, 6}}
	for i, f := range frames {
		if err := fw.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		if w := rec.snapshot(); len(w) != i+1 || !bytes.Equal(w[i], f) {
			t.Fatalf("after frame %d the sink holds %v", i, w)
		}
	}
	fw.Close()
	if err := fw.WriteFrame([]byte{9}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after close: %v, want net.ErrClosed", err)
	}
}

// TestFlushWriterError pins sticky error propagation: once the sink
// fails, every subsequent WriteFrame reports it — at once when writing
// through, from the flush on when coalescing.
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

	fw = newFlushWriter(failingWriter{err: boom}, farOff)
	if err := fw.WriteFrame([]byte{1}); err != nil {
		t.Fatalf("buffered write: %v", err)
	}
	if err := fw.Close(); !errors.Is(err, boom) {
		t.Fatalf("close after a failed flush: %v, want boom", err)
	}
	if err := fw.WriteFrame([]byte{2}); !errors.Is(err, boom) {
		t.Fatalf("sticky error lost: %v", err)
	}
}

type failingWriter struct{ err error }

func (w failingWriter) Write([]byte) (int, error) { return 0, w.err }
