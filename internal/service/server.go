package service

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"
)

// Backend is what the network server needs from the lease service.
// *Service implements it; the chaos campaigns wrap it to record the
// server-boundary history the linearizability checker replays. A Backend
// that also has Service's Admit method is admitted on the connection's
// read loop (see NewServerWithOptions).
type Backend interface {
	Acquire(resource, owner string, opt AcquireOptions) (Lease, error)
	ReleaseFenced(resource string, token, fence uint64) error
	Resume(resource string, token, fence uint64) (Lease, error)
	Drain(grace time.Duration) error
	Close() error
}

// ServerOptions tune the network layer's robustness behavior; the zero
// value reproduces the original permissive server.
type ServerOptions struct {
	// IdleTimeout reaps connections that go quiet between requests —
	// including half-open peers that died mid-frame, which a bare TCP
	// read would wait on forever (0 = never reap).
	IdleTimeout time.Duration
	// MaxWait caps the server-side queued wait of any acquire,
	// regardless of what the client asked for, so an abandoned
	// connection cannot pin its goroutine in the admission queue
	// indefinitely (0 = honor the client's request unbounded).
	MaxWait time.Duration
	// RetryAfter, when positive, is attached to shed-class
	// refusals (queue-full, shed, degraded, draining) as the retry-after
	// hint: the server inserting a delay into the client's retry loop,
	// which is the paper's anti-herd delay one layer up.
	RetryAfter time.Duration
	// FlushDelay, when positive, turns on write coalescing: each
	// connection's responses are held while more are being produced, so
	// frames completing close together leave in one write syscall. The
	// hold ends when the connection goes quiet (or 8 KiB is pending);
	// FlushDelay is the upper bound on it, the paper's time-out on an
	// inserted delay, not a time every batch waits (0 = write through).
	FlushDelay time.Duration
	// Window caps the queued pipelined (WireVersion3) acquires awaiting
	// their outcome on a connection's workers; once the window is full,
	// and as many again wait for a worker, the connection's read loop
	// stops pulling frames, pushing backpressure into the TCP window. An
	// acquire that admission decides at once takes no slot. Lock-step
	// connections stay strictly one-in-flight regardless (0 =
	// DefaultWindow).
	Window int
}

// DefaultWindow is the per-connection pipelining window when
// ServerOptions.Window is zero.
const DefaultWindow = 32

// Server serves the wire protocol over TCP, one read loop per
// connection. A lock-step connection's waiting acquire blocks its read
// loop, which is exactly the queued-waiter semantics of the in-process
// API; a pipelined connection's queued acquires wait on a worker pool
// instead (see serveConn).
type Server struct {
	svc   Backend
	opt   ServerOptions
	admit admitter // nil: every acquire is queued, its wait svc.Acquire

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
	wg       sync.WaitGroup
}

// NewServer wraps a service for network serving with default options.
func NewServer(svc Backend) *Server {
	return NewServerWithOptions(svc, ServerOptions{})
}

// NewServerWithOptions wraps a service for network serving. A Backend
// without Admit is served as if its admission queued every acquire, with
// Acquire as the wait.
func NewServerWithOptions(svc Backend, opt ServerOptions) *Server {
	s := &Server{svc: svc, opt: opt, conns: make(map[net.Conn]struct{})}
	s.admit, _ = svc.(admitter)
	return s
}

// admitter is a Backend whose acquire splits into admission and wait, as
// *Service's does (see Service.Admit).
type admitter interface {
	Admit(resource, owner string, opt AcquireOptions) (Lease, Pending, error)
}

// acquireLater is the Pending of an acquire on a Backend without Admit.
type acquireLater func() (Lease, error)

func (f acquireLater) Wait() (Lease, error) { return f() }

// Serve accepts connections on ln until Close or Drain; it returns nil
// after a clean shutdown and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.closed || s.draining
			s.mu.Unlock()
			if stopping {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed || s.draining {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Drain is the graceful half of shutdown: stop accepting, then drain
// the backend (flush queued waiters typed ErrDraining, grace-wait the
// live leases, revoke stragglers). Existing connections stay up —
// connected clients receive the typed CodeDraining verdict with a
// retry-after hint on their next acquire and can still release or
// resume — until the caller finishes with Close.
func (s *Server) Drain(grace time.Duration) error {
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		return nil
	}
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	return s.svc.Drain(grace)
}

// Close stops accepting, closes every live connection, and waits for
// the connection goroutines to drain — no goroutine leaks even
// mid-request (in-flight waiting acquires are flushed by svc.Close if
// the caller closes the service too; a bare server Close unblocks reads
// by closing the sockets).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
		if s.draining {
			err = nil // the drain already closed the listener
		}
	}
	s.wg.Wait()
	return err
}

func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.wg.Done()
}

// serveConn is the per-connection request loop. A malformed frame is
// answered with a typed CodeBadFrame error and the connection is closed
// — a misbehaving client cannot wedge the read loop. With IdleTimeout
// set, a peer that goes quiet (or half-open) between requests is reaped
// by the read deadline instead of pinning the goroutine forever.
//
// The read loop dispatches every frame itself: releases, resumes, pings
// and the admission of every acquire, which the core decides at once
// (granted, or refused typed) or queues. A decided acquire is answered
// inline, without a goroutine hand-off. A queued one waits: a lock-step
// frame (no request ID) on the read loop, preserving the strict
// one-in-flight discipline lock-step clients rely on; a pipelined one on
// the connection's workers, started lazily by the first such acquire: a
// fixed pool of `window` of them fed by a window-deep channel, so at most
// `window` queued acquires await their doorbells and at most another
// window sit admitted awaiting a worker; past that the read loop blocks
// (TCP backpressure) rather than growing an unbounded queue. Responses
// leave through the shared flushWriter in completion order; request IDs
// let the client reorder.
func (s *Server) serveConn(conn net.Conn) {
	dec := NewDecoder()
	// 32 KiB: coalesced peers deliver multi-frame batches (up to the
	// 8 KiB flush threshold plus whatever lands while a read is parked),
	// and the reader should swallow a batch in one syscall.
	br := bufio.NewReaderSize(conn, 32<<10)
	fw := newFlushWriter(conn, s.opt.FlushDelay)
	var pl *connPipeline
	defer func() {
		if pl != nil { // end intake, and let the workers finish their waits
			close(pl.reqs)
			pl.wg.Wait()
		}
		fw.Close()
		s.dropConn(conn)
	}()
	var scratch []byte
	for {
		if s.opt.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.opt.IdleTimeout))
		}
		req, err := dec.ReadRequest(br)
		if err != nil {
			var werr *WireError
			if errors.As(err, &werr) {
				// The frame's own layout is unknowable; answer without an ID.
				resp := Response{Op: OpError, Code: CodeBadFrame, Msg: werr.Msg}
				if out, eerr := AppendResponse(scratch[:0], resp); eerr == nil {
					fw.WriteFrame(out)
				}
			}
			return // EOF, closed socket, idle deadline, or malformed frame
		}
		resp, p := s.dispatch(req)
		if p != nil && req.Version == WireVersion3 {
			if pl == nil {
				pl = s.startPipeline(conn, fw)
			}
			pl.reqs <- queued{req.ID, p} // bounded buffering, then backpressure
			continue
		}
		if p != nil {
			resp = s.leaseResp(p.Wait())
		}
		resp.Version, resp.ID = req.Version, req.ID
		if scratch, err = reply(fw, scratch, resp); err != nil {
			return
		}
	}
}

// reply encodes resp into scratch and writes it; scratch is returned
// (possibly grown) for the caller's next reply.
func reply(fw *flushWriter, scratch []byte, resp Response) ([]byte, error) {
	out, err := AppendResponse(scratch[:0], resp)
	if err != nil {
		return scratch, err
	}
	return out, fw.WriteFrame(out)
}

// queued is a pipelined acquire that admission queued.
type queued struct {
	id uint64
	p  Pending
}

// connPipeline is one pipelined connection's worker pool.
type connPipeline struct {
	reqs chan queued
	wg   sync.WaitGroup
}

// startPipeline spins up the connection's workers. Each owns its encode
// scratch and awaits one queued acquire at a time, so waiters on
// different resources really do wait concurrently.
func (s *Server) startPipeline(conn net.Conn, fw *flushWriter) *connPipeline {
	window := s.opt.Window
	if window <= 0 {
		window = DefaultWindow
	}
	pl := &connPipeline{reqs: make(chan queued, window)}
	pl.wg.Add(window)
	for i := 0; i < window; i++ {
		go func() {
			defer pl.wg.Done()
			var scratch []byte
			var err error
			for q := range pl.reqs {
				// Awaited even once the connection failed: the wait is what
				// takes the admitted waiter back out of the core.
				resp := s.leaseResp(q.p.Wait())
				if err != nil {
					continue
				}
				resp.Version, resp.ID = WireVersion3, q.id
				if scratch, err = reply(fw, scratch, resp); err != nil {
					conn.Close()
				}
			}
		}()
	}
	return pl
}

// errResp builds the typed error response, attaching the retry-after
// hint to shed-class refusals.
func (s *Server) errResp(err error) Response {
	resp := Response{Op: OpError, Code: errorCode(err), Msg: err.Error()}
	if s.opt.RetryAfter > 0 && shedClass(resp.Code) {
		resp.RetryAfter = s.opt.RetryAfter
	}
	return resp
}

// leaseResp builds the response to an acquire or resume: the lease, or
// the typed error.
func (s *Server) leaseResp(lease Lease, err error) Response {
	if err != nil {
		return s.errResp(err)
	}
	return Response{Op: OpGranted, Token: lease.Token, Deadline: lease.Deadline.UnixNano(), Fence: lease.Fence}
}

// dispatch executes one request against the service. An acquire is only
// admitted: if it is queued, the response is the Pending's to give.
func (s *Server) dispatch(req Request) (Response, Pending) {
	switch req.Op {
	case OpAcquire:
		opt := AcquireOptions{TTL: req.TTL, Wait: req.Wait, MaxWait: req.MaxWait}
		if s.opt.MaxWait > 0 && (opt.MaxWait <= 0 || opt.MaxWait > s.opt.MaxWait) {
			opt.MaxWait = s.opt.MaxWait
		}
		if req.Deadline > 0 {
			// Deadline propagation: clamp the queued wait to the client's
			// remaining budget so a caller that has already given up
			// cannot hold a queue slot (or a worker) past it.
			remaining := time.Until(time.Unix(0, req.Deadline))
			if remaining <= 0 {
				return s.errResp(ErrWaitTimeout), nil
			}
			if opt.Wait && (opt.MaxWait <= 0 || opt.MaxWait > remaining) {
				opt.MaxWait = remaining
			}
		}
		if s.admit == nil {
			return Response{}, acquireLater(func() (Lease, error) { return s.svc.Acquire(req.Resource, req.Owner, opt) })
		}
		lease, p, err := s.admit.Admit(req.Resource, req.Owner, opt)
		if p != nil {
			return Response{}, p
		}
		return s.leaseResp(lease, err), nil
	case OpRelease:
		if err := s.svc.ReleaseFenced(req.Resource, req.Token, req.Fence); err != nil {
			return s.errResp(err), nil
		}
		return Response{Op: OpOK}, nil
	case OpResume:
		return s.leaseResp(s.svc.Resume(req.Resource, req.Token, req.Fence)), nil
	case OpPing:
		return Response{Op: OpOK}, nil
	}
	return Response{Op: OpError, Code: CodeBadFrame, Msg: "unknown op"}, nil
}
