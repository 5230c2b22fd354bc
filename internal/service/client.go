package service

import (
	"bufio"
	"fmt"
	"math/bits"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"iqolb/internal/faults"
)

// framePool recycles encode buffers for pipelined sends; every buffer
// holds a maximal frame so encodes never grow them.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, wireHeaderLen+MaxPayload)
		return &b
	},
}

// Client is a lockserve wire-protocol client, safe for concurrent use.
// A Client from Dial or NewClient runs each op once on its one
// connection. A Client from Redial has an address to dial again: it
// dials lazily and runs each op through its retry policy (rclient.go).
// Either way, requests serialize on the live connection (one in flight),
// matching the closed-loop clients of the load generator, until Pipeline
// lets one connection carry a window of concurrent requests, told apart
// by the request IDs of the WireVersion3 layout.
type Client struct {
	cur       atomic.Pointer[wireConn] // the live connection; nil while a Redial client has none
	opTimeout atomic.Int64             // time.Duration, read by every op

	// The retry policy, set by Redial only: a client from Dial or
	// NewClient has no address to redial, and no retry loop, held leases
	// or stats.
	addr   string
	policy RetryPolicy

	mu         sync.Mutex // guards the fields below, the dial and the jitter draw
	window     int        // Pipeline's, applied to every connection dialed
	flushDelay time.Duration
	closed     bool
	str        faults.Stream
	held       map[string]Lease // resource → lease to re-validate on reconnect; nil unless Redial
	stats      ClientStats
}

// Dial connects to a lockserve address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	c := &Client{}
	c.cur.Store(newWireConn(conn))
	return c
}

// SetOpTimeout bounds each subsequent operation, so a dead or
// partitioned peer surfaces as a typed timeout instead of a hang. In
// lock-step mode it is a connection deadline around the round trip; in
// pipelined mode each op carries a deadline that the pipeline's one
// deadline timer enforces (the shared socket cannot carry per-op read
// deadlines). The same budget is propagated to the server inside
// acquire frames, which clamps its queued wait to the client's remaining
// budget, and it bounds each dial of a Redial client. 0 disables.
func (c *Client) SetOpTimeout(d time.Duration) {
	c.opTimeout.Store(int64(d))
}

// Pipeline switches the client to pipelined mode: WireVersion3 frames, up to
// `window` requests in flight at once on the one connection (0 =
// DefaultWindow), each holding one of `window` slots, and responses
// routed back to their slot by request ID. flushDelay > 0 additionally
// coalesces request frames: they are held while other goroutines are
// still sending on this client, so concurrent ops' frames leave in one
// write syscall. The hold ends when the senders go quiet — a lone op is
// written at once — and flushDelay is only the upper bound on it. A
// Redial client pipelines every connection it dials. Pipeline must be
// called before the client is shared across goroutines and cannot be
// undone.
func (c *Client) Pipeline(window int, flushDelay time.Duration) error {
	if window <= 0 {
		window = DefaultWindow
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.cur.Load(); w != nil {
		if err := w.pipeline(window, flushDelay); err != nil {
			return err
		}
	} else if c.window != 0 {
		return wireErrf("client already pipelined")
	}
	c.window, c.flushDelay = window, flushDelay
	return nil
}

// Close closes the connection. A Dial client's later ops fail
// net.ErrClosed; a Redial client's fail ErrClosed and dial nothing.
func (c *Client) Close() error {
	if c.held == nil {
		return c.cur.Load().close()
	}
	c.mu.Lock()
	c.closed = true
	w := c.cur.Swap(nil)
	c.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.close()
}

// do runs one request: once on a Dial client's connection, through the
// retry loop on a Redial client's.
func (c *Client) do(req Request) (Response, error) {
	if c.held == nil {
		return c.cur.Load().roundTrip(req, time.Duration(c.opTimeout.Load()))
	}
	return c.retry(req)
}

// wireConn is one connection: the socket, the lock-step round trip's
// mutex, reader and decoder, and once pipelined its response router.
type wireConn struct {
	conn   net.Conn
	closed atomic.Bool
	// pl is an atomic because the pipelined hot path reads it on every
	// op from many goroutines; taking the round-trip mutex just to read
	// it would serialize the window.
	pl atomic.Pointer[clientPipeline] // nil until pipelined

	mu  sync.Mutex // serializes lock-step round trips (and the mode change)
	br  *bufio.Reader
	dec *Decoder
	enc []byte // lock-step encode scratch
}

func newWireConn(conn net.Conn) *wireConn {
	return &wireConn{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 32<<10),
		dec:  NewDecoder(),
	}
}

// pipeline builds the connection's window of slots and starts its router.
func (w *wireConn) pipeline(window int, flushDelay time.Duration) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return net.ErrClosed
	}
	if w.pl.Load() != nil {
		return wireErrf("client already pipelined")
	}
	// Clear any lock-step deadline left on the socket; pipelined ops are
	// bounded by the deadline timer instead.
	w.conn.SetDeadline(time.Time{})
	pl := &clientPipeline{
		fw:    newFlushWriter(w.conn, flushDelay),
		free:  make(chan uint64, window),
		slots: make([]pipeSlot, window),
		bits:  uint(bits.Len(uint(window - 1))),
	}
	for i := range pl.slots {
		pl.slots[i].ch = make(chan Response, 1)
		pl.free <- uint64(i)
	}
	pl.timer = time.AfterFunc(time.Hour, func() { pl.sweep(false) })
	pl.timer.Stop()
	w.pl.Store(pl)
	go pl.readLoop(w.br)
	return nil
}

// close closes the socket. It deliberately does NOT take the round-trip
// mutex: a round trip blocked mid-read on a vanished peer holds it
// indefinitely, and net.Conn.Close is safe to call concurrently — it
// unblocks that pending read with net.ErrClosed. In pipelined mode the
// dying read loop then fails every in-flight op typed.
func (w *wireConn) close() error {
	if !w.closed.CompareAndSwap(false, true) {
		return nil
	}
	return w.conn.Close()
}

// roundTrip executes one request: pipelined when a window is active,
// lock-step (write, then read, under the mutex) otherwise. An acquire
// carries the op's deadline to the server. A lock-step round trip that
// fails on the socket closes the connection: the response it gave up on
// may still arrive, and with no request IDs the next op would take it
// for its own.
func (w *wireConn) roundTrip(req Request, timeout time.Duration) (Response, error) {
	var deadline int64 // UnixNano; 0 = none
	if timeout > 0 {
		deadline = time.Now().Add(timeout).UnixNano()
		if req.Op == OpAcquire {
			req.Deadline = deadline
		}
	}
	if pl := w.pl.Load(); pl != nil {
		if w.closed.Load() {
			return Response{}, net.ErrClosed
		}
		return pl.do(req, timeout, deadline)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed.Load() {
		return Response{}, net.ErrClosed
	}
	if deadline != 0 {
		w.conn.SetDeadline(time.Unix(0, deadline))
	}
	frame, err := AppendRequest(w.enc[:0], req)
	if err != nil {
		return Response{}, err
	}
	w.enc = frame
	_, err = w.conn.Write(frame)
	var resp Response
	if err == nil {
		resp, err = w.dec.ReadResponse(w.br)
	}
	if err != nil {
		w.close()
	}
	return resp, err
}

// clientPipeline is the response router behind a pipelined Client: a
// fixed ring of window slots, each owning its reply channel for the
// connection's life. An op takes a free slot, sends its frame under the
// ID gen<<bits | slot, and receives once on the slot's channel; the read
// loop finds the slot by mask — responses arrive in the server's
// completion order, not send order — with no map and no lock.
//
// Each op is woken exactly once. The slot's word arbitrates between the
// router, the deadline timer and fail(): whoever settles it from pending
// to done is the channel's one sender for that op. A late reply to a
// timed-out op names an older generation of its slot, so it cannot
// settle the slot's next op and is dropped.
//
// Op timeouts share one timer, set to the earliest pending deadline and
// only while some pending op has one; at pipelined rates with a fixed
// timeout, an op finds it already set no later than its own deadline
// and touches neither lock nor timer.
type clientPipeline struct {
	fw    *flushWriter
	free  chan uint64 // indices of free slots; a full window waits here
	slots []pipeSlot
	bits  uint // width of the slot index in a request ID

	err atomic.Pointer[error] // first transport failure, sticky

	// mu orders arming against sweeping: both set armed under it, or an
	// earlier deadline could be lost behind a later one.
	mu    sync.Mutex
	armed atomic.Int64 // deadline the timer is set for (UnixNano); 0 = none
	timer *time.Timer  // the one deadline timer; runs sweep(false)
}

// pipeSlot is one window slot. Its word is 0 while idle, id<<1|1 while op
// id is pending and id<<1 once the op is done.
type pipeSlot struct {
	word     atomic.Uint64
	deadline atomic.Int64  // the pending op's, UnixNano; 0 = no timeout
	gen      uint64        // the slot's uses; touched only by its holder
	ch       chan Response // buffered 1; never closed
}

// settle moves op id from pending to done, reporting whether this caller
// did so and so owns the op's one send on the slot's channel.
func (s *pipeSlot) settle(id uint64) bool {
	return s.word.CompareAndSwap(id<<1|1, id<<1)
}

// The sweep's in-band markers: op bytes the wire never carries, delivered
// on the reply channel so do() needs one receive, not a select.
const (
	opTimedOut = 0xFF // the op's deadline passed
	opFailed   = 0xFE // the pipeline failed; its sticky error says why
)

// opTimeoutError is a pipelined per-op timeout. It implements net.Error
// with Timeout() true, so a Redial client's retry loop classifies it
// exactly like a connection deadline: transport fault, drop the
// connection, redial, retry.
type opTimeoutError struct{ op string }

func (e *opTimeoutError) Error() string {
	return "service: " + e.op + " timed out awaiting pipelined response"
}
func (e *opTimeoutError) Timeout() bool   { return true }
func (e *opTimeoutError) Temporary() bool { return true }

// do runs one pipelined op: take a slot, mark it pending, send, await.
// deadline is the op's (UnixNano, 0 = none); timeout bounds the wait for
// a slot.
func (p *clientPipeline) do(req Request, timeout time.Duration, deadline int64) (Response, error) {
	if err := p.err.Load(); err != nil {
		return Response{}, *err
	}
	// Window acquisition: the non-blocking fast path costs no timer at
	// all; only an actually-full window arms one to bound the wait.
	var i uint64
	select {
	case i = <-p.free:
	default:
		if timeout > 0 {
			timer := time.NewTimer(timeout)
			select {
			case i = <-p.free:
				timer.Stop()
			case <-timer.C:
				return Response{}, &opTimeoutError{op: opName(req.Op)}
			}
		} else {
			i = <-p.free
		}
	}
	defer func() { p.free <- i }()

	s := &p.slots[i]
	s.gen++
	id := s.gen<<p.bits | i
	s.deadline.Store(deadline)
	s.word.Store(id<<1 | 1)
	if a := p.armed.Load(); deadline != 0 && (a == 0 || deadline < a) {
		p.arm(deadline)
	}
	req.Version = WireVersion3
	req.ID = id
	if err := p.send(req); err != nil {
		if !s.settle(id) {
			<-s.ch // a sweep settled it first: take its marker
		}
		return Response{}, err
	}
	switch resp := <-s.ch; resp.Op {
	case opTimedOut:
		return Response{}, &opTimeoutError{op: opName(req.Op)}
	case opFailed:
		return Response{}, *p.err.Load()
	default:
		return resp, nil
	}
}

// send encodes and writes one request frame. Its op's slot is already
// pending, so either fail() settles that slot or the check here sees
// fail()'s error. A failed write fails the pipeline, and the op reports
// the sticky error like every other op caught by the failure.
//
// No per-op write deadline: a peer that stopped reading wedges the
// socket write, but the timer then times out some op, classifies
// transport, and the retry loop (or the caller) closes the
// connection — which unblocks the writer. Skipping the syscall per op
// matters at these rates.
func (p *clientPipeline) send(req Request) error {
	if err := p.err.Load(); err != nil {
		return *err
	}
	buf := framePool.Get().(*[]byte)
	frame, err := AppendRequest((*buf)[:0], req)
	if err == nil {
		*buf = frame
		if err = p.fw.WriteFrame(frame); err != nil {
			p.fail(err)
			err = *p.err.Load()
		}
	}
	framePool.Put(buf)
	return err
}

// arm sets the timer to deadline unless it is already set no later.
func (p *clientPipeline) arm(deadline int64) {
	p.mu.Lock()
	if a := p.armed.Load(); a == 0 || deadline < a {
		p.armed.Store(deadline)
		p.timer.Reset(time.Until(time.Unix(0, deadline)))
	}
	p.mu.Unlock()
}

// sweep settles every pending op past its deadline with the timeout
// marker — or, with failAll, every pending op with the failure marker —
// and sets the timer to the earliest deadline left. It clears armed
// before it looks at any slot, so an op that saw the old value has a
// pending slot that this sweep sees.
func (p *clientPipeline) sweep(failAll bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.armed.Store(0)
	marker := Response{Op: opTimedOut}
	if failAll {
		marker.Op = opFailed
	}
	now, next := time.Now().UnixNano(), int64(0)
	for i := range p.slots {
		s := &p.slots[i]
		w := s.word.Load()
		if w&1 == 0 {
			continue
		}
		if d := s.deadline.Load(); failAll || (d != 0 && d <= now) {
			if s.settle(w >> 1) {
				s.ch <- marker // buffered; the op has not yet received
			}
		} else if d != 0 && (next == 0 || d < next) {
			next = d
		}
	}
	if next != 0 {
		p.armed.Store(next)
		p.timer.Reset(time.Duration(next - now))
	} else {
		p.timer.Stop()
	}
}

// fail records the sticky error, settles every pending op with the
// failure marker and stops the flusher; later ops fail fast with the
// error. The flusher stops last: its final flush is a socket write.
func (p *clientPipeline) fail(err error) {
	if p.err.CompareAndSwap(nil, &err) {
		p.sweep(true)
		p.fw.Close()
	}
}

// readLoop is the router: one decoder, one reader goroutine for the
// connection's lifetime, and no steady-state allocation.
func (p *clientPipeline) readLoop(br *bufio.Reader) {
	dec := NewDecoder()
	mask := uint64(1)<<p.bits - 1
	for {
		resp, err := dec.ReadResponse(br)
		if err != nil {
			p.fail(fmt.Errorf("service: pipelined read: %w", err))
			return
		}
		// An ID no op is pending under (a timed-out op's late reply, or
		// one this client never sent) settles nothing and is dropped.
		if i := resp.ID & mask; i < uint64(len(p.slots)) && resp.ID>>63 == 0 && p.slots[i].settle(resp.ID) {
			p.slots[i].ch <- resp // buffered; never blocks the router
		}
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
// sentinels the in-process API returns. A Redial client retries
// transient refusals and transport faults behind the jittered backoff. A
// transport retry can observe the side effect of its own earlier attempt
// (the first try's grant landed but the response was lost); the fencing
// token keeps that safe — the orphan lease expires by TTL and its stale
// release would be rejected typed.
func (c *Client) Acquire(resource, owner string, opt AcquireOptions) (Lease, error) {
	resp, err := c.do(Request{
		Op:       OpAcquire,
		Resource: resource,
		Owner:    owner,
		TTL:      opt.TTL,
		MaxWait:  opt.MaxWait,
		Wait:     opt.Wait,
	})
	lease, err := leaseReply("acquire", resource, owner, resp, err)
	if err == nil && c.held != nil {
		c.mu.Lock()
		c.held[resource] = lease
		c.mu.Unlock()
	}
	return lease, err
}

// Release ends a lease over the wire.
func (c *Client) Release(resource string, token uint64) error {
	return c.ReleaseFenced(resource, token, 0)
}

// ReleaseFenced ends a lease over the wire with its fencing token;
// fence 0 makes no fence claim. On a Redial client, a typed
// ErrNotHeld/ErrLeaseExpired/ErrRevoked/ErrFenced verdict after a
// transport retry resolves to success: the earlier attempt may have
// landed, and each of those verdicts proves this token no longer holds
// the resource — which is all a release needs.
func (c *Client) ReleaseFenced(resource string, token, fence uint64) error {
	resp, err := c.do(Request{Op: OpRelease, Resource: resource, Token: token, Fence: fence})
	if c.held != nil {
		c.mu.Lock()
		if held, ok := c.held[resource]; ok && held.Token == token {
			delete(c.held, resource)
		}
		c.mu.Unlock()
	}
	return okReply("release", resp, err)
}

// resume re-validates a held lease after a reconnect: the live lease if
// the token still holds the resource, or the typed reason it no longer
// does.
func (w *wireConn) resume(resource string, token, fence uint64, timeout time.Duration) (Lease, error) {
	resp, err := w.roundTrip(Request{Op: OpResume, Resource: resource, Token: token, Fence: fence}, timeout)
	return leaseReply("resume", resource, "", resp, err)
}

// Ping round-trips a no-op frame.
func (c *Client) Ping() error {
	resp, err := c.do(Request{Op: OpPing})
	return okReply("ping", resp, err)
}
