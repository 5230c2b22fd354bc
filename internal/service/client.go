package service

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// framePool recycles encode buffers for pipelined sends; every buffer
// holds a maximal frame so encodes never grow them.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, wireHeaderLen+MaxPayload)
		return &b
	},
}

// opTimerPool recycles the per-op timeout timers: at pipelined rates
// time.NewTimer per op is a top-five CPU line, and Go 1.23+ timer
// semantics (synchronous Stop/Reset, no stale channel values) make
// Reset-after-Stop safe without draining.
var opTimerPool = sync.Pool{}

func getOpTimer(d time.Duration) *time.Timer {
	if t, _ := opTimerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func putOpTimer(t *time.Timer) {
	t.Stop()
	opTimerPool.Put(t)
}

// replyChanPool recycles the buffered-1 reply channels ops register
// with the read loop. A channel may be pooled only when no late send or
// close can still target it: after its single response was received, or
// after a deregister that found the registration still present (so the
// router never saw it and the failure path cannot close it).
var replyChanPool = sync.Pool{
	New: func() any { return make(chan Response, 1) },
}

// Client is a lockserve wire-protocol client. It is safe for concurrent
// use. By default requests serialize on the single connection (one in
// flight), matching the closed-loop clients of the load generator; open
// one Client per concurrent actor, or call Pipeline to let one
// connection carry a window of concurrent requests, told apart by the
// request IDs of the WireVersion3 layout.
type Client struct {
	conn   net.Conn
	closed atomic.Bool

	// opTimeout and pl are atomics because the pipelined hot path reads
	// them on every op from many goroutines; taking the round-trip mutex
	// just to read them would serialize the window.
	opTimeout atomic.Int64                   // time.Duration
	pl        atomic.Pointer[clientPipeline] // nil until Pipeline

	mu  sync.Mutex // serializes lock-step round trips (and mode changes)
	br  *bufio.Reader
	dec *Decoder
	enc []byte // lock-step encode scratch
}

// Dial connects to a lockserve address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// DialTimeout connects with a bound on the dial itself.
func DialTimeout(addr string, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 32<<10),
		dec:  NewDecoder(),
	}
}

// SetOpTimeout bounds each subsequent operation, so a dead or
// partitioned peer surfaces as a typed timeout instead of a hang. In
// lock-step mode it is a connection deadline around the round trip; in
// pipelined mode each op registers a deadline that the pipeline's
// watchdog enforces (the shared socket cannot carry per-op read
// deadlines). The same budget is propagated to the server inside
// acquire frames, which clamps its queued wait to the client's remaining
// budget. 0 disables.
func (c *Client) SetOpTimeout(d time.Duration) {
	c.opTimeout.Store(int64(d))
}

// Pipeline switches the client to pipelined mode: WireVersion3 frames, up to
// `window` requests in flight at once on the one connection (0 =
// DefaultWindow), responses demultiplexed by request ID. flushDelay > 0
// additionally coalesces request frames: they are held while other
// goroutines are still sending on this client, so concurrent ops' frames
// leave in one write syscall. The hold ends when the senders go quiet —
// a lone op is written at once — and flushDelay is only the upper bound
// on it. Pipeline must be called before the client is shared across
// goroutines and cannot be undone on this connection.
func (c *Client) Pipeline(window int, flushDelay time.Duration) error {
	if window <= 0 {
		window = DefaultWindow
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return net.ErrClosed
	}
	if c.pl.Load() != nil {
		return wireErrf("client already pipelined")
	}
	// Clear any lock-step deadline left on the socket; pipelined ops are
	// bounded by watchdog-enforced per-op deadlines instead.
	c.conn.SetDeadline(time.Time{})
	pl := &clientPipeline{
		c:       c,
		fw:      newFlushWriter(c.conn, flushDelay),
		sem:     make(chan struct{}, window),
		pending: make(map[uint64]pendingOp),
		stopc:   make(chan struct{}),
	}
	c.pl.Store(pl)
	go pl.readLoop(c.br)
	go pl.watchdog()
	return nil
}

// Close closes the connection. It deliberately does NOT take the
// round-trip mutex: a round trip blocked mid-read on a vanished peer
// holds it indefinitely, and net.Conn.Close is safe to call
// concurrently — it unblocks that pending read with net.ErrClosed. In
// pipelined mode the dying read loop then fails every in-flight op
// typed.
func (c *Client) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	return c.conn.Close()
}

// roundTrip executes one request: pipelined when a window is active,
// lock-step (write, then read, under the mutex) otherwise. A lock-step
// round trip that fails on the socket closes the connection: the
// response it gave up on may still arrive, and with no request IDs the
// next op would take it for its own.
func (c *Client) roundTrip(req Request) (Response, error) {
	if pl := c.pl.Load(); pl != nil {
		if c.closed.Load() {
			return Response{}, net.ErrClosed
		}
		return pl.do(req, time.Duration(c.opTimeout.Load()))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return Response{}, net.ErrClosed
	}
	if d := time.Duration(c.opTimeout.Load()); d > 0 {
		c.conn.SetDeadline(time.Now().Add(d))
	}
	frame, err := AppendRequest(c.enc[:0], req)
	if err != nil {
		return Response{}, err
	}
	c.enc = frame
	_, err = c.conn.Write(frame)
	var resp Response
	if err == nil {
		resp, err = c.dec.ReadResponse(c.br)
	}
	if err != nil {
		c.Close()
	}
	return resp, err
}

// clientPipeline is the demultiplexing response router behind a
// pipelined Client: ops register a reply channel under a fresh request
// ID, frames go out through the (optionally coalescing) flushWriter,
// and the read loop matches responses — which arrive in the server's
// completion order, not send order — back to their waiting ops.
//
// Op timeouts are enforced by a single watchdog goroutine scanning the
// pending registrations, not by a timer per op: arming and disarming a
// runtime timer twice per op is a top-five CPU line at pipelined rates,
// while one scan per tick is O(in-flight window) every few tens of
// milliseconds. Timeouts are therefore coarse — an op can outlive its
// deadline by up to one watchdog tick — which is the right trade for a
// bound whose job is unwedging ops from a dead peer, not precision.
type clientPipeline struct {
	c   *Client
	fw  *flushWriter
	sem chan struct{} // in-flight window slots

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]pendingOp
	err     error // first transport failure, sticky

	stopc chan struct{} // closed by fail(); stops the watchdog
}

// pendingOp is one in-flight registration: the reply channel and the
// absolute deadline (UnixNano; 0 = no timeout) the watchdog enforces.
type pendingOp struct {
	ch       chan Response
	deadline int64
}

// opTimedOut is the watchdog's in-band timeout marker: an op byte the
// wire never carries, delivered on the reply channel so do() needs only
// one channel receive instead of a select with a timer.
const opTimedOut = 0xFF

// watchdogTick bounds how long past its deadline an op can linger.
const watchdogTick = 25 * time.Millisecond

// opTimeoutError is a pipelined per-op timeout. It implements net.Error
// with Timeout() true, so the resilient layer classifies it exactly
// like a connection deadline: transport fault, drop the connection,
// redial, retry.
type opTimeoutError struct{ op string }

func (e *opTimeoutError) Error() string {
	return "service: " + e.op + " timed out awaiting pipelined response"
}
func (e *opTimeoutError) Timeout() bool   { return true }
func (e *opTimeoutError) Temporary() bool { return true }

// do runs one pipelined op: take a window slot, register, send, await.
func (p *clientPipeline) do(req Request, timeout time.Duration) (Response, error) {
	// Window acquisition: the non-blocking fast path costs no timer at
	// all; only an actually-full window arms one (pooled) to bound the
	// wait.
	select {
	case p.sem <- struct{}{}:
	default:
		if timeout > 0 {
			timer := getOpTimer(timeout)
			select {
			case p.sem <- struct{}{}:
				putOpTimer(timer)
			case <-timer.C:
				putOpTimer(timer)
				return Response{}, &opTimeoutError{op: opName(req.Op)}
			}
		} else {
			p.sem <- struct{}{}
		}
	}
	defer func() { <-p.sem }()

	deadline := req.Deadline // an acquire's, stamped from the same timeout
	if deadline == 0 && timeout > 0 {
		deadline = time.Now().Add(timeout).UnixNano()
	}
	id := p.nextID.Add(1)
	ch := replyChanPool.Get().(chan Response)
	p.mu.Lock()
	if p.err != nil {
		err := p.err
		p.mu.Unlock()
		replyChanPool.Put(ch)
		return Response{}, err
	}
	p.pending[id] = pendingOp{ch: ch, deadline: deadline}
	p.mu.Unlock()

	req.Version = WireVersion3
	req.ID = id
	buf := framePool.Get().(*[]byte)
	frame, err := AppendRequest((*buf)[:0], req)
	if err != nil {
		framePool.Put(buf)
		if p.deregister(id) {
			replyChanPool.Put(ch)
		}
		return Response{}, err
	}
	// No per-op write deadline: a peer that stopped reading wedges the
	// socket write, but the watchdog then times out some op, classifies
	// transport, and the resilient layer (or the caller) closes the
	// connection — which unblocks the writer. Skipping the syscall per
	// op matters at these rates.
	*buf = frame
	werr := p.fw.WriteFrame(frame)
	framePool.Put(buf)
	if werr != nil {
		// A write error means the frame never reached the coalescing
		// buffer, so no response can land on ch; if the registration is
		// still ours (fail() has not closed it), the channel is clean.
		if p.deregister(id) {
			replyChanPool.Put(ch)
		}
		p.fail(werr)
		return Response{}, werr
	}

	// One plain receive: the router delivers the response, the watchdog
	// delivers the opTimedOut marker, or fail() closes the channel.
	// Whoever delivers deleted the registration first, so the (single)
	// send makes the channel clean to recycle.
	resp, ok := <-ch
	if !ok {
		// fail() closed it — a closed channel is never pooled.
		p.mu.Lock()
		err := p.err
		p.mu.Unlock()
		if err == nil {
			err = net.ErrClosed
		}
		return Response{}, err
	}
	replyChanPool.Put(ch)
	if resp.Op == opTimedOut {
		return Response{}, &opTimeoutError{op: opName(req.Op)}
	}
	return resp, nil
}

// watchdog enforces pipelined op deadlines: every tick it sweeps the
// pending registrations and delivers the timeout marker to any op past
// its deadline. It exits when fail() closes stopc (transport death
// already woke every op by closing its channel).
func (p *clientPipeline) watchdog() {
	timer := time.NewTimer(watchdogTick)
	defer timer.Stop()
	var expired []chan Response
	for {
		select {
		case <-p.stopc:
			return
		case <-timer.C:
		}
		now := time.Now().UnixNano()
		expired = expired[:0]
		p.mu.Lock()
		for id, po := range p.pending {
			if po.deadline != 0 && now >= po.deadline {
				delete(p.pending, id)
				expired = append(expired, po.ch)
			}
		}
		p.mu.Unlock()
		for _, ch := range expired {
			ch <- Response{Op: opTimedOut} // buffered; sole sender post-delete
		}
		timer.Reset(watchdogTick)
	}
}

// deregister removes id's reply registration, reporting whether it was
// still present (false: the router or fail() already claimed it).
func (p *clientPipeline) deregister(id uint64) bool {
	p.mu.Lock()
	_, ok := p.pending[id]
	delete(p.pending, id)
	p.mu.Unlock()
	return ok
}

// fail marks the pipeline dead, wakes every in-flight op by closing
// its reply channel, and stops the watchdog and the flusher; subsequent
// ops fail fast at registration. The flusher is stopped after the mutex
// is released: its last flush is a socket write, and ops must be able
// to fail at registration while it is in progress.
func (p *clientPipeline) fail(err error) {
	p.mu.Lock()
	if p.err != nil {
		p.mu.Unlock()
		return
	}
	p.err = err
	close(p.stopc)
	for id, po := range p.pending {
		delete(p.pending, id)
		close(po.ch)
	}
	p.mu.Unlock()
	p.fw.Close()
}

// readLoop is the router: one decoder, one reader goroutine for the
// connection's lifetime, zero steady-state allocations beyond the reply
// channels.
func (p *clientPipeline) readLoop(br *bufio.Reader) {
	dec := NewDecoder()
	for {
		resp, err := dec.ReadResponse(br)
		if err != nil {
			p.fail(fmt.Errorf("service: pipelined read: %w", err))
			return
		}
		p.mu.Lock()
		po, ok := p.pending[resp.ID]
		if ok {
			delete(p.pending, resp.ID)
		}
		p.mu.Unlock()
		if ok {
			po.ch <- resp // buffered; never blocks the router
		}
		// Unknown ID: the op timed out and deregistered — drop it.
	}
}

// leaseReply maps the response to an acquire or resume onto the lease
// it grants or the typed error it carries.
func leaseReply(what, resource, owner string, resp Response, err error) (Lease, error) {
	if err != nil {
		return Lease{}, err
	}
	switch resp.Op {
	case OpGranted:
		return Lease{
			Resource: resource,
			Owner:    owner,
			Token:    resp.Token,
			Fence:    resp.Fence,
			Deadline: time.Unix(0, resp.Deadline),
		}, nil
	case OpError:
		return Lease{}, codeError(resp)
	}
	return Lease{}, fmt.Errorf("service: unexpected response op %d to %s", resp.Op, what)
}

// okReply maps the response to a release or ping onto nil or the typed
// error it carries.
func okReply(what string, resp Response, err error) error {
	if err != nil {
		return err
	}
	switch resp.Op {
	case OpOK:
		return nil
	case OpError:
		return codeError(resp)
	}
	return fmt.Errorf("service: unexpected response op %d to %s", resp.Op, what)
}

// Acquire requests a lease over the wire; errors are the same typed
// sentinels the in-process API returns.
func (c *Client) Acquire(resource, owner string, opt AcquireOptions) (Lease, error) {
	req := Request{
		Op:       OpAcquire,
		Resource: resource,
		Owner:    owner,
		TTL:      opt.TTL,
		MaxWait:  opt.MaxWait,
		Wait:     opt.Wait,
	}
	if d := time.Duration(c.opTimeout.Load()); d > 0 {
		req.Deadline = time.Now().Add(d).UnixNano()
	}
	resp, err := c.roundTrip(req)
	return leaseReply("acquire", resource, owner, resp, err)
}

// Release ends a lease over the wire.
func (c *Client) Release(resource string, token uint64) error {
	return c.ReleaseFenced(resource, token, 0)
}

// ReleaseFenced ends a lease over the wire with its fencing token;
// fence 0 makes no fence claim.
func (c *Client) ReleaseFenced(resource string, token, fence uint64) error {
	resp, err := c.roundTrip(Request{Op: OpRelease, Resource: resource, Token: token, Fence: fence})
	return okReply("release", resp, err)
}

// Resume re-validates a held lease after a reconnect: the live lease if
// the token still holds the resource, or the typed reason it no longer
// does.
func (c *Client) Resume(resource string, token, fence uint64) (Lease, error) {
	resp, err := c.roundTrip(Request{Op: OpResume, Resource: resource, Token: token, Fence: fence})
	return leaseReply("resume", resource, "", resp, err)
}

// Ping round-trips a no-op frame.
func (c *Client) Ping() error {
	resp, err := c.roundTrip(Request{Op: OpPing})
	return okReply("ping", resp, err)
}
