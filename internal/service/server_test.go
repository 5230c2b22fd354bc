package service

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"
)

// startServer spins an in-process server on a loopback listener.
func startServer(t *testing.T, mut func(*Config)) (*Server, string) {
	t.Helper()
	cfg := Config{Shards: 2, QueueDepth: 16, DefaultTTL: 30 * time.Second}
	if mut != nil {
		mut(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(svc)
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

func TestServerRoundTrip(t *testing.T) {
	_, addr := startServer(t, nil)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	l, err := c.Acquire("db", "alice", AcquireOptions{TTL: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if l.Token == 0 || l.Deadline.IsZero() {
		t.Fatalf("lease = %+v", l)
	}
	// Typed busy over the wire.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Acquire("db", "bob", AcquireOptions{}); !errors.Is(err, ErrNoWait) {
		t.Fatalf("wire busy: %v, want ErrNoWait", err)
	}
	if err := c.Release("db", l.Token); err != nil {
		t.Fatal(err)
	}
	if err := c.Release("db", l.Token); !errors.Is(err, ErrNotHeld) {
		t.Fatalf("wire double release: %v, want ErrNotHeld", err)
	}
}

// waitAllQueued waits, bounded, until n waiters are queued across the
// service's shards, so a test named for the queued path provably takes
// it however late the waiters' goroutines are scheduled.
func waitAllQueued(t *testing.T, b Backend, n int) {
	s := b.(*Service)
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		q := 0
		for _, sh := range s.Snapshot().Shards {
			q += sh.Queued
		}
		if q >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d waiters queued", q, n)
		}
	}
}

// TestServerHandoffOverWire runs a contended acquire across
// connections: the waiter blocks on its connection until the holder's
// release hands the lease over.
func TestServerHandoffOverWire(t *testing.T) {
	srv, addr := startServer(t, nil)
	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	l, err := holder.Acquire("r", "holder", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	const waiters = 4
	var wg sync.WaitGroup
	errs := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			wl, err := c.Acquire("r", fmt.Sprintf("w%d", i), AcquireOptions{Wait: true, MaxWait: 10 * time.Second})
			if err != nil {
				errs <- err
				return
			}
			errs <- c.Release("r", wl.Token)
		}(i)
	}
	waitAllQueued(t, srv.svc, waiters)
	if err := holder.Release("r", l.Token); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestServerMalformedFrame pins the abuse path: garbage — an oversized
// payload, and each version byte the server does not speak (0, the
// retired 1, the unassigned 4) — gets a typed CodeBadFrame response in
// the WireVersion2 layout, the connection is closed, and no connection
// goroutine leaks — even across many abusive connections.
func TestServerMalformedFrame(t *testing.T) {
	frames := map[string][]byte{
		"oversized payload": {2, 0xee, 0xff, 0xff},
		"version 0":         {0, OpPing, 0, 0},
		"version 1":         {1, OpPing, 0, 0},
		"version 4":         {4, OpPing, 0, 0},
	}
	for name, frame := range frames {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			srv, addr := startServer(t, nil)
			for i := 0; i < 5; i++ {
				conn, err := net.Dial("tcp", addr)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Write(frame); err != nil {
					t.Fatal(err)
				}
				dec := NewDecoder()
				resp, err := dec.ReadResponse(conn)
				if err != nil {
					t.Fatalf("conn %d: no bad-frame response: %v", i, err)
				}
				if resp.Version != WireVersion2 || resp.Op != OpError || resp.Code != CodeBadFrame {
					t.Fatalf("conn %d: resp = %+v, want v2 OpError/CodeBadFrame", i, resp)
				}
				var werr *WireError
				if !errors.As(codeError(resp), &werr) {
					t.Fatalf("conn %d: %v does not map to *WireError", i, codeError(resp))
				}
				// The server hangs up after a malformed frame.
				if _, err := dec.ReadResponse(conn); err == nil {
					t.Fatalf("conn %d: connection still open after malformed frame", i)
				}
				conn.Close()
			}
			if err := srv.Close(); err != nil {
				t.Fatal(err)
			}
			// Close waits for the connection goroutines, so only scheduler
			// noise remains.
			waitGoroutines(t, before)
		})
	}
}

// TestServerCloseUnblocksWaiters: closing service + server flushes a
// connection blocked in a waiting acquire.
func TestServerCloseUnblocksWaiters(t *testing.T) {
	srv, addr := startServer(t, nil)
	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if _, err := holder.Acquire("r", "holder", AcquireOptions{}); err != nil {
		t.Fatal(err)
	}
	waiterDone := make(chan error, 1)
	go func() {
		c, err := Dial(addr)
		if err != nil {
			waiterDone <- err
			return
		}
		defer c.Close()
		_, err = c.Acquire("r", "w", AcquireOptions{Wait: true})
		waiterDone <- err
	}()
	waitAllQueued(t, srv.svc, 1)
	// Service close flushes the waiter with ErrClosed; the server relays
	// it (or the socket drops — both unblock).
	srv.svc.Close()
	select {
	case err := <-waiterDone:
		if err == nil {
			t.Fatal("waiting acquire succeeded across close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiting connection never unblocked on close")
	}
}
