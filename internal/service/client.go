package service

import (
	"bufio"
	"fmt"
	"math/bits"
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
// pipelined mode each op carries a deadline that the pipeline's one
// deadline timer enforces (the shared socket cannot carry per-op read
// deadlines). The same budget is propagated to the server inside
// acquire frames, which clamps its queued wait to the client's remaining
// budget. 0 disables.
func (c *Client) SetOpTimeout(d time.Duration) {
	c.opTimeout.Store(int64(d))
}

// Pipeline switches the client to pipelined mode: WireVersion3 frames, up to
// `window` requests in flight at once on the one connection (0 =
// DefaultWindow), each holding one of `window` slots built here, and
// responses routed back to their slot by request ID. flushDelay > 0
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
	// bounded by the deadline timer instead.
	c.conn.SetDeadline(time.Time{})
	pl := &clientPipeline{
		fw:    newFlushWriter(c.conn, flushDelay),
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
	c.pl.Store(pl)
	go pl.readLoop(c.br)
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
// with Timeout() true, so the resilient layer classifies it exactly
// like a connection deadline: transport fault, drop the connection,
// redial, retry.
type opTimeoutError struct{ op string }

func (e *opTimeoutError) Error() string {
	return "service: " + e.op + " timed out awaiting pipelined response"
}
func (e *opTimeoutError) Timeout() bool   { return true }
func (e *opTimeoutError) Temporary() bool { return true }

// do runs one pipelined op: take a slot, mark it pending, send, await.
func (p *clientPipeline) do(req Request, timeout time.Duration) (Response, error) {
	if err := p.err.Load(); err != nil {
		return Response{}, *err
	}
	// Window acquisition: the non-blocking fast path costs no timer at
	// all; only an actually-full window arms one (pooled) to bound the
	// wait.
	var i uint64
	select {
	case i = <-p.free:
	default:
		if timeout > 0 {
			timer := getOpTimer(timeout)
			select {
			case i = <-p.free:
				putOpTimer(timer)
			case <-timer.C:
				putOpTimer(timer)
				return Response{}, &opTimeoutError{op: opName(req.Op)}
			}
		} else {
			i = <-p.free
		}
	}
	defer func() { p.free <- i }()

	s := &p.slots[i]
	deadline := req.Deadline // an acquire's, stamped from the same timeout
	if deadline == 0 && timeout > 0 {
		deadline = time.Now().Add(timeout).UnixNano()
	}
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
// transport, and the resilient layer (or the caller) closes the
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
