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
// server-boundary history the linearizability checker replays.
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
	// Window caps the concurrently-executing pipelined (WireVersion3)
	// requests per connection; once the window is full the connection's
	// read loop stops pulling frames, pushing backpressure into the TCP
	// window. Lock-step connections stay strictly one-in-flight
	// regardless (0 = DefaultWindow).
	Window int
}

// DefaultWindow is the per-connection pipelining window when
// ServerOptions.Window is zero.
const DefaultWindow = 32

// Server serves the wire protocol over TCP, one read loop per
// connection. A lock-step connection's waiting acquire blocks its read
// loop, which is exactly the queued-waiter semantics of the in-process
// API; a pipelined connection's acquires wait on a worker pool instead
// (see serveConn).
type Server struct {
	svc Backend
	opt ServerOptions

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

// NewServerWithOptions wraps a service for network serving.
func NewServerWithOptions(svc Backend, opt ServerOptions) *Server {
	return &Server{svc: svc, opt: opt, conns: make(map[net.Conn]struct{})}
}

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
// The version byte of each arriving frame selects how it is served.
// Frames without a request ID dispatch serially in-line, preserving the
// strict one-in-flight discipline lock-step clients rely on. The first
// acquire that carries an ID lazily starts the connection's pipeline: a
// fixed pool of `window` workers fed by a window-deep channel, so at
// most `window` requests execute concurrently and at most another
// window sit decoded awaiting a worker; past that the read loop blocks
// (TCP backpressure) rather than growing an unbounded queue. The buffer
// keeps the read loop decoding while workers run instead of stalling on
// a synchronous goroutine hand-off per frame. Responses leave through
// the shared flushWriter in completion order; request IDs let the client
// reorder.
func (s *Server) serveConn(conn net.Conn) {
	dec := NewDecoder()
	// 32 KiB: coalesced peers deliver multi-frame batches (up to the
	// 8 KiB flush threshold plus whatever lands while a read is parked),
	// and the reader should swallow a batch in one syscall.
	br := bufio.NewReaderSize(conn, 32<<10)
	fw := newFlushWriter(conn, s.opt.FlushDelay)
	var pl *connPipeline
	defer func() {
		if pl != nil {
			pl.stop()
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
		// Acquires can park in an admission queue, so pipelined ones run on
		// the window's worker pool. Everything else (release, resume, ping)
		// only ever takes a shard lock briefly — dispatching those inline on
		// the read loop skips a goroutine hand-off per op, which at
		// pipelined rates is a top-line scheduler cost on few cores.
		// Responses interleave by ID, so ordering is free.
		if req.Version == WireVersion3 && req.Op == OpAcquire {
			if pl == nil {
				pl = s.startPipeline(conn, fw)
			}
			pl.submit(req)
			continue
		}
		if scratch, err = s.reply(fw, scratch, req); err != nil {
			return
		}
	}
}

// reply executes req and writes its response in the layout, and under
// the ID, the request arrived with. The response is encoded into scratch,
// which is returned (possibly grown) for the caller's next reply.
func (s *Server) reply(fw *flushWriter, scratch []byte, req Request) ([]byte, error) {
	resp := s.dispatch(req)
	resp.Version, resp.ID = req.Version, req.ID
	out, err := AppendResponse(scratch[:0], resp)
	if err != nil {
		return scratch, err
	}
	return out, fw.WriteFrame(out)
}

// connPipeline is one pipelined connection's worker pool.
type connPipeline struct {
	reqs chan Request
	wg   sync.WaitGroup
}

// startPipeline spins up the connection's pipelined dispatch workers.
// Each worker owns its encode scratch; resource-level parallelism comes
// from the service's shards, so workers for different resources really
// do proceed concurrently while workers queued on one hot resource wait
// in its shard's admission queue like any other waiter.
func (s *Server) startPipeline(conn net.Conn, fw *flushWriter) *connPipeline {
	window := s.opt.Window
	if window <= 0 {
		window = DefaultWindow
	}
	pl := &connPipeline{reqs: make(chan Request, window)}
	pl.wg.Add(window)
	for i := 0; i < window; i++ {
		go func() {
			defer pl.wg.Done()
			var scratch []byte
			var err error
			for req := range pl.reqs {
				if err != nil {
					continue // drain so submit never blocks without receivers
				}
				if scratch, err = s.reply(fw, scratch, req); err != nil {
					conn.Close()
				}
			}
		}()
	}
	return pl
}

// submit hands one request to the worker pool, blocking once the
// window's worth of decoded requests is already waiting — bounded
// buffering, then backpressure.
func (pl *connPipeline) submit(req Request) { pl.reqs <- req }

// stop ends intake and waits for in-flight dispatches to finish.
func (pl *connPipeline) stop() {
	close(pl.reqs)
	pl.wg.Wait()
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

// granted builds the response carrying a lease.
func granted(lease Lease) Response {
	return Response{Op: OpGranted, Token: lease.Token, Deadline: lease.Deadline.UnixNano(), Fence: lease.Fence}
}

// dispatch executes one request against the service; reply stamps the
// response's layout.
func (s *Server) dispatch(req Request) Response {
	switch req.Op {
	case OpAcquire:
		opt := AcquireOptions{TTL: req.TTL, Wait: req.Wait, MaxWait: req.MaxWait}
		if s.opt.MaxWait > 0 && (opt.MaxWait <= 0 || opt.MaxWait > s.opt.MaxWait) {
			opt.MaxWait = s.opt.MaxWait
		}
		if req.Deadline > 0 {
			// Deadline propagation: clamp the queued wait to the client's
			// remaining budget so a caller that has already given up
			// cannot hold a queue slot (or this goroutine) past it.
			remaining := time.Until(time.Unix(0, req.Deadline))
			if remaining <= 0 {
				return s.errResp(ErrWaitTimeout)
			}
			if opt.Wait && (opt.MaxWait <= 0 || opt.MaxWait > remaining) {
				opt.MaxWait = remaining
			}
		}
		lease, err := s.svc.Acquire(req.Resource, req.Owner, opt)
		if err != nil {
			return s.errResp(err)
		}
		return granted(lease)
	case OpRelease:
		if err := s.svc.ReleaseFenced(req.Resource, req.Token, req.Fence); err != nil {
			return s.errResp(err)
		}
		return Response{Op: OpOK}
	case OpResume:
		lease, err := s.svc.Resume(req.Resource, req.Token, req.Fence)
		if err != nil {
			return s.errResp(err)
		}
		return granted(lease)
	case OpPing:
		return Response{Op: OpOK}
	}
	return Response{Op: OpError, Code: CodeBadFrame, Msg: "unknown op"}
}
