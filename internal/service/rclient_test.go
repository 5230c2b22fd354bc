package service

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestResilientGiveUpTyped: a dead address exhausts the retry budget and
// fails with the wrapped typed cause — never a hang, never a bare error.
func TestResilientGiveUpTyped(t *testing.T) {
	// Grab a port that refuses: listen, note the address, close.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	rc := Redial(addr, RetryPolicy{Initial: time.Millisecond, Cap: 2 * time.Millisecond, MaxAttempts: 3, Seed: 1})
	rc.SetOpTimeout(100 * time.Millisecond)
	defer rc.Close()
	start := time.Now()
	err = rc.Ping()
	if err == nil {
		t.Fatal("ping succeeded against a dead address")
	}
	if !Retryable(err) {
		t.Fatalf("give-up error lost its retryable cause: %v", err)
	}
	// Three attempts of at most 100 ms each plus ≤ 2 ms backoffs: the 5 s
	// bound catches a retry loop that never gives up, not a slow host.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("give-up took %v", elapsed)
	}
	st := rc.Stats()
	if st.GaveUp != 1 {
		t.Fatalf("stats = %+v, want GaveUp 1", st)
	}
	if st.Retries != 2 {
		t.Fatalf("stats = %+v, want 2 backoffs for 3 attempts", st)
	}
}

// TestResilientFatalNotRetried: a typed fatal verdict returns immediately
// without burning the retry budget.
func TestResilientFatalNotRetried(t *testing.T) {
	_, addr := startServerOpts(t, nil, ServerOptions{})
	rc := Redial(addr, RetryPolicy{Initial: time.Millisecond, Cap: 2 * time.Millisecond, MaxAttempts: 8, Seed: 1})
	defer rc.Close()
	err := rc.Release("r", 999)
	if !errors.Is(err, ErrNotHeld) {
		t.Fatalf("bogus release: %v, want ErrNotHeld", err)
	}
	if st := rc.Stats(); st.Retries != 0 || st.GaveUp != 0 {
		t.Fatalf("fatal error consumed retries: %+v", st)
	}
}

// cuttableRelay is a single-target TCP relay whose live connections can
// be severed on demand — the minimal "network cable" for reconnect
// tests.
type cuttableRelay struct {
	ln     net.Listener
	target string
	mu     sync.Mutex
	conns  []net.Conn
}

func newCuttableRelay(t *testing.T, target string) *cuttableRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r := &cuttableRelay{ln: ln, target: target}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			r.mu.Lock()
			r.conns = append(r.conns, c, up)
			r.mu.Unlock()
			go func() { io.Copy(up, c); up.Close() }()
			go func() { io.Copy(c, up); c.Close() }()
		}
	}()
	t.Cleanup(func() { ln.Close(); r.cut() })
	return r
}

func (r *cuttableRelay) addr() string { return r.ln.Addr().String() }

func (r *cuttableRelay) cut() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

// TestResilientReconnectResume: cut the network under a held lease; the
// next operation reconnects, the resume re-validates the same lease
// (same token, same fence), and the release completes against it.
func TestResilientReconnectResume(t *testing.T) {
	_, addr := startServerOpts(t, nil, ServerOptions{})
	relay := newCuttableRelay(t, addr)
	rc := Redial(relay.addr(), RetryPolicy{Initial: time.Millisecond, Cap: 8 * time.Millisecond, MaxAttempts: 8, Seed: 1})
	defer rc.Close()
	l, err := rc.Acquire("r", "o", AcquireOptions{TTL: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	relay.cut()
	// The cut surfaces on the next op as a transport fault; the retry
	// loop reconnects and resumes the held lease first.
	if err := rc.Ping(); err != nil {
		t.Fatalf("ping across the cut: %v", err)
	}
	st := rc.Stats()
	if st.Reconnects == 0 || st.ResumedOK == 0 || st.ResumedLost != 0 {
		t.Fatalf("stats = %+v, want a reconnect with a clean resume", st)
	}
	held := rc.Held()
	if len(held) != 1 || held[0].Token != l.Token || held[0].Fence != l.Fence {
		t.Fatalf("held after resume = %+v, want the original lease %+v", held, l)
	}
	if err := rc.ReleaseFenced(l.Resource, l.Token, l.Fence); err != nil {
		t.Fatalf("release after reconnect: %v", err)
	}
}

// TestResilientRetryAfterCapped: the server's retry-after hint is a
// backoff band no wider than the policy's Cap, so a peer that answers
// every request with an hour-long hint cannot park the client past its
// budget: it gives up typed, within the retry budget.
func TestResilientRetryAfterCapped(t *testing.T) {
	addr, accept := rawPeer(t)
	rc := Redial(addr, RetryPolicy{Initial: time.Millisecond, Cap: 4 * time.Millisecond, MaxAttempts: 3, Seed: 1})
	defer rc.Close()
	done := make(chan error, 1)
	go func() { done <- rc.Ping() }()
	conn := accept()
	go func() {
		dec := NewDecoder()
		for {
			if _, err := dec.ReadRequest(conn); err != nil {
				return
			}
			frame, err := AppendResponse(nil, Response{Op: OpError, Code: CodeShed, Msg: ErrShed.Error(), RetryAfter: time.Hour})
			if err != nil {
				return
			}
			if _, err := conn.Write(frame); err != nil {
				return
			}
		}
	}()
	select {
	case err := <-done:
		if err == nil || !Retryable(err) {
			t.Fatalf("ping against a shedding peer: %v, want a retryable give-up", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("client parked on an hour-long retry-after hint")
	}
	if st := rc.Stats(); st.GaveUp != 1 {
		t.Fatalf("stats = %+v, want GaveUp 1", st)
	}
}

// TestResilientRedialKeepsWindow: the window belongs to the client, so
// the connection a Redial client dials after a cut is pipelined too —
// four waiting acquires are queued at the server at once. A closed
// Redial client then fails typed and dials nothing.
func TestResilientRedialKeepsWindow(t *testing.T) {
	srv, addr := startServerOpts(t, nil, ServerOptions{})
	relay := newCuttableRelay(t, addr)
	rc := Redial(relay.addr(), RetryPolicy{Initial: time.Millisecond, Cap: 8 * time.Millisecond, MaxAttempts: 8, Seed: 1})
	defer rc.Close()
	rc.SetOpTimeout(5 * time.Second)
	if err := rc.Pipeline(4, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.Acquire("mine", "o", AcquireOptions{TTL: 30 * time.Second}); err != nil {
		t.Fatal(err)
	}
	first := rc.cur.Load()
	relay.cut()
	if err := rc.Ping(); err != nil {
		t.Fatalf("ping across the cut: %v", err)
	}
	if w := rc.cur.Load(); w == first || w.pl.Load() == nil {
		t.Fatal("the redialed connection is not pipelined")
	}

	holder, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	hot, err := holder.Acquire("hot", "holder", AcquireOptions{})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			l, err := rc.Acquire("hot", fmt.Sprintf("w%d", i), AcquireOptions{Wait: true, MaxWait: 5 * time.Second})
			if err == nil {
				err = rc.ReleaseFenced(l.Resource, l.Token, l.Fence)
			}
			errs <- err
		}(i)
	}
	waitAllQueued(t, srv.svc, 4)
	if err := holder.Release("hot", hot.Token); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	dials := rc.Stats().Dials
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Ping(); !errors.Is(err, ErrClosed) {
		t.Fatalf("ping after close: %v, want ErrClosed", err)
	}
	if st := rc.Stats(); st.Dials != dials {
		t.Fatalf("closed client dialed: %d dials, had %d", st.Dials, dials)
	}
}
