package service

import (
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"
)

// startServerOpts spins an in-process server with explicit options.
func startServerOpts(t testing.TB, mut func(*Config), opt ServerOptions) (*Server, string) {
	t.Helper()
	cfg := Config{Shards: 2, QueueDepth: 16, DefaultTTL: 30 * time.Second}
	if mut != nil {
		mut(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServerWithOptions(svc, opt)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Close(); err != nil {
			t.Errorf("server close: %v", err)
		}
		svc.Close()
		if err := <-serveErr; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// waitGoroutines polls until the goroutine count settles back to the
// baseline (plus scheduler noise).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			t.Fatalf("goroutines leaked: %d -> %d\n%s", before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientCloseUnblocksPendingRoundTrip pins the Close-deadlock fix: a
// round trip blocked mid-read on an unresponsive peer must be unblocked
// by a concurrent Close, not hold its mutex against it forever.
func TestClientCloseUnblocksPendingRoundTrip(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// Read and drop everything; never answer (a stalled peer).
			go io.Copy(io.Discard, conn)
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	pingDone := make(chan error, 1)
	go func() { pingDone <- c.Ping() }()
	// Let the ping block in the read. If Close lands first the ping fails
	// on the closed connection instead, which the test accepts too: the
	// sleep can weaken it, not fail it.
	time.Sleep(20 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-pingDone:
		if err == nil {
			t.Fatal("ping succeeded against a mute peer")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock the pending round trip")
	}
	// Further use of the closed client fails typed, immediately.
	if err := c.Ping(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("ping after close: %v, want net.ErrClosed", err)
	}
}

// TestLockstepFailedRoundTripClosesConn pins the desync fix. A lock-step
// op that times out on the socket leaves its response in flight; with no
// request IDs, every later op on that connection would read its
// predecessor's answer (the second acquire "fails" with the first one's
// wait-timeout, the ping is handed the second acquire's grant, and the
// client holds a lease it never learns of). The failed round trip must
// close the connection instead, so later ops fail net.ErrClosed.
func TestLockstepFailedRoundTripClosesConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	timedOut := make(chan struct{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// A slow peer: it sits on the first answer until the client has
		// given up on it, then answers every request in arrival order.
		dec := NewDecoder()
		for first := true; ; first = false {
			req, err := dec.ReadRequest(conn)
			if err != nil {
				return
			}
			resp := Response{Op: OpOK}
			switch {
			case first:
				<-timedOut
				resp = Response{Op: OpError, Code: CodeTimeout, Msg: ErrWaitTimeout.Error()}
			case req.Op == OpAcquire:
				resp = Response{Op: OpGranted, Token: 7, Fence: 1, Deadline: time.Now().Add(time.Minute).UnixNano()}
			}
			frame, err := AppendResponse(nil, resp)
			if err != nil {
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetOpTimeout(50 * time.Millisecond)
	_, err = c.Acquire("x", "o", AcquireOptions{Wait: true})
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("acquire x against a slow peer: %v, want a socket timeout", err)
	}
	close(timedOut)
	if l, err := c.Acquire("y", "o", AcquireOptions{}); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("acquire y after a failed round trip: %+v, %v; want net.ErrClosed", l, err)
	}
	if err := c.Ping(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("ping after a failed round trip: %v, want net.ErrClosed", err)
	}
	select {
	case <-served:
	case <-time.After(2 * time.Second):
		t.Fatal("the failed round trip left the connection open")
	}
}

// TestClientsNoGoroutineLeak churns many client connections through the
// server and asserts both sides drain completely.
func TestClientsNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, addr := startServerOpts(t, nil, ServerOptions{})
	for i := 0; i < 20; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		l, err := c.Acquire("r", "o", AcquireOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Release("r", l.Token); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// TestClientCloseStopsFlusher: a pipelined client with a flush delay
// owns a flusher goroutine, and that goroutine ends with the connection
// — when the client closes it, and when the server resets it under a
// client nobody has closed yet.
func TestClientCloseStopsFlusher(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, addr := startServerOpts(t, nil, ServerOptions{FlushDelay: 50 * time.Microsecond})
	dial := func() *Client {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Pipeline(8, 50*time.Microsecond); err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	for i := 0; i < 20; i++ {
		if err := dial().Close(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		defer dial().Close()
	}
	if err := srv.Close(); err != nil { // resets the 20 live connections
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// TestServerIdleTimeoutReaps: a connection that goes quiet (or half-open)
// is closed by the idle deadline instead of pinning its goroutine.
func TestServerIdleTimeoutReaps(t *testing.T) {
	before := runtime.NumGoroutine()
	srv, addr := startServerOpts(t, nil, ServerOptions{IdleTimeout: 50 * time.Millisecond})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send nothing; the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := NewDecoder().ReadResponse(conn); err == nil {
		t.Fatal("idle connection got a response out of nowhere")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("server never reaped the idle connection")
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// TestServerMaxWaitCap: the server-side wait cap bounds a queued acquire
// regardless of the client's ask, so an abandoned connection cannot pin
// its goroutine in the queue.
func TestServerMaxWaitCap(t *testing.T) {
	_, addr := startServerOpts(t, nil, ServerOptions{MaxWait: 50 * time.Millisecond})
	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.Acquire("r", "holder", AcquireOptions{}); err != nil {
		t.Fatal(err)
	}
	waiter, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	start := time.Now()
	_, err = waiter.Acquire("r", "w", AcquireOptions{Wait: true, MaxWait: 10 * time.Second})
	if !errors.Is(err, ErrWaitTimeout) {
		t.Fatalf("capped wait: %v, want ErrWaitTimeout", err)
	}
	// 100× the cap and half the client's ask: only an ignored cap lands
	// past it.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("server honored the client's 10s ask despite a 50ms cap (took %v)", elapsed)
	}
}

// TestServerDeadlinePropagation: an acquire whose propagated deadline
// has already passed is refused immediately with the typed timeout.
func TestServerDeadlinePropagation(t *testing.T) {
	_, addr := startServerOpts(t, nil, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame, err := AppendRequest(nil, Request{
		Version:  WireVersion2,
		Op:       OpAcquire,
		Resource: "r",
		Owner:    "late",
		Wait:     true,
		MaxWait:  10 * time.Second,
		Deadline: time.Now().Add(-time.Second).UnixNano(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := NewDecoder().ReadResponse(conn)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Op != OpError || !errors.Is(codeError(resp), ErrWaitTimeout) {
		t.Fatalf("expired-deadline acquire: %+v, want typed ErrWaitTimeout", resp)
	}
	if resp.Version != WireVersion2 {
		t.Fatalf("server answered v%d to a v2 request", resp.Version)
	}
}

// TestServerFenceOverWire exercises the fencing surface end to end:
// fences arrive with grants, protect releases, and gate resume.
func TestServerFenceOverWire(t *testing.T) {
	_, addr := startServerOpts(t, nil, ServerOptions{})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l, err := c.Acquire("r", "o", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if l.Fence == 0 {
		t.Fatal("grant carried no fence")
	}
	if err := c.ReleaseFenced("r", l.Token, l.Fence+1); !errors.Is(err, ErrFenced) {
		t.Fatalf("wrong-fence release: %v, want ErrFenced", err)
	}
	got, err := c.cur.Load().resume("r", l.Token, l.Fence, 0)
	if err != nil || got.Token != l.Token || got.Fence != l.Fence {
		t.Fatalf("resume: %+v, %v", got, err)
	}
	if _, err := c.cur.Load().resume("r", l.Token, l.Fence+1, 0); !errors.Is(err, ErrFenced) {
		t.Fatalf("wrong-fence resume: %v, want ErrFenced", err)
	}
	if err := c.ReleaseFenced("r", l.Token, l.Fence); err != nil {
		t.Fatal(err)
	}
	if _, err := c.cur.Load().resume("r", l.Token, l.Fence, 0); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("resume after release: %v, want ErrNotHeld", err)
	}
}

// TestServerDrainGraceful: drain stops accepting, flushes queued waiters
// typed, refuses new acquires with the draining verdict plus a
// retry-after hint, yet lets connected holders finish their releases.
func TestServerDrainGraceful(t *testing.T) {
	srv, addr := startServerOpts(t, nil, ServerOptions{RetryAfter: 5 * time.Millisecond})
	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	l, err := holder.Acquire("r", "holder", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waiter, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer waiter.Close()
	waitErr := make(chan error, 1)
	go func() {
		_, err := waiter.Acquire("r", "w", AcquireOptions{Wait: true, MaxWait: 10 * time.Second})
		waitErr <- err
	}()
	waitAllQueued(t, srv.svc, 1)

	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(2 * time.Second) }()

	// The queued waiter is flushed with the typed draining verdict.
	select {
	case err := <-waitErr:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("queued waiter: %v, want ErrDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued waiter never flushed during drain")
	}
	// The connected holder can still release inside the grace window...
	if err := holder.Release("r", l.Token); err != nil {
		t.Fatalf("release during drain: %v", err)
	}
	// ...which lets the drain finish before its grace deadline.
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain never completed after the last release")
	}
	// New acquires on a live connection get the typed verdict + hint.
	_, err = holder.Acquire("r2", "holder", AcquireOptions{})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("acquire during drain: %v, want ErrDraining", err)
	}
	if hint, ok := RetryAfterHint(err); !ok || hint != 5*time.Millisecond {
		t.Fatalf("retry-after hint = %v, %v; want 5ms, true", hint, ok)
	}
	// New connections are refused (the listener is down).
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Fatal("dial succeeded against a draining server")
	}
}
