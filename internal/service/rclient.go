// The retry policy of a Redial client: the serving-path rendering of the
// paper's delay-insertion argument applied to retries. A connection
// reset or a shed is the re-arrival herd problem all over again — every
// affected client would re-dial and re-acquire at once, which is the
// test&set stampede the paper fixes with calibrated delays. A Redial
// client therefore retries behind a capped exponential backoff quantized
// to bands (the locks.Tuning band idea) with seeded jitter inside the
// band, honors the server's retry-after hints up to the same cap (the
// server inserting the delay), and re-validates held leases by fencing
// token after every reconnect so a zombie can never double-release.
package service

import (
	"errors"
	"fmt"
	"net"
	"time"

	"iqolb/internal/faults"
)

// RetryPolicy is the capped-exponential delay schedule: attempt n backs
// off within the band [b/2, b) where b = min(Initial<<n, Cap). The
// half-open band plus seeded jitter spreads retries the way the paper's
// inserted delays spread polls — no two clients herd on the same
// instant, yet the quantized bands keep the schedule analyzable.
type RetryPolicy struct {
	// Initial is the first band (default 2ms); Cap bounds the growth
	// (default 250ms).
	Initial time.Duration
	Cap     time.Duration
	// MaxAttempts bounds the total tries per operation, first attempt
	// included (default 8). When exhausted the operation fails with the
	// last typed error wrapped in a give-up message.
	MaxAttempts int
	// Seed drives the jitter stream; equal seeds yield equal retry
	// schedules, which is what keeps chaos campaigns reproducible.
	Seed uint64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Initial <= 0 {
		p.Initial = 2 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 250 * time.Millisecond
	}
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 8
	}
	return p
}

// band returns attempt's backoff band (attempt 0 = first retry).
func (p RetryPolicy) band(attempt int) time.Duration {
	b := p.Initial
	for i := 0; i < attempt && b < p.Cap; i++ {
		b <<= 1
	}
	if b > p.Cap {
		b = p.Cap
	}
	return b
}

// ClientStats counts what a Redial client's retry loop did; all
// monotonic, and all zero on a Dial client.
type ClientStats struct {
	Dials       uint64 `json:"dials"`
	Reconnects  uint64 `json:"reconnects"`
	Retries     uint64 `json:"retries"`
	ResumedOK   uint64 `json:"resumed_ok"`
	ResumedLost uint64 `json:"resumed_lost"`
	GaveUp      uint64 `json:"gave_up"`
}

// Redial builds a client for addr that dials lazily on the first
// operation, with an op timeout of 1s (SetOpTimeout changes it). It runs
// every op through the retry policy: typed retryable-vs-fatal
// classification, jittered-delay backoff, a redial after a transport
// fault, and fenced resumption of the leases it holds on every new
// connection. Operations run outside the client's mutex, so a pipelined
// Redial client is genuinely shared by many goroutines.
func Redial(addr string, p RetryPolicy) *Client {
	c := &Client{
		addr:   addr,
		policy: p.withDefaults(),
		str:    faults.NewStream(p.Seed),
		held:   make(map[string]Lease),
	}
	c.opTimeout.Store(int64(time.Second))
	return c
}

// Stats returns a copy of the retry-loop counters.
func (c *Client) Stats() ClientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Held returns the leases a Redial client believes it holds (post-resume
// truth after the latest reconnect).
func (c *Client) Held() []Lease {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Lease, 0, len(c.held))
	for _, l := range c.held {
		out = append(out, l)
	}
	return out
}

// connect returns the live connection, dialing one (and resuming the
// held leases over it) if there is none.
func (c *Client) connect() (*wireConn, error) {
	if w := c.cur.Load(); w != nil {
		return w, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if w := c.cur.Load(); w != nil {
		return w, nil
	}
	timeout := time.Duration(c.opTimeout.Load())
	conn, err := net.DialTimeout("tcp", c.addr, timeout)
	if err != nil {
		return nil, err
	}
	w := newWireConn(conn)
	if c.window != 0 {
		if err := w.pipeline(c.window, c.flushDelay); err != nil {
			w.close()
			return nil, err
		}
	}
	c.stats.Dials++
	if c.stats.Dials > 1 {
		c.stats.Reconnects++
	}
	c.resumeHeld(w, timeout)
	c.cur.Store(w)
	return w, nil
}

// resumeHeld re-validates every held lease over a fresh connection. A
// typed loss verdict (expired, revoked, fenced, not held) removes the
// record — the lease is gone and must never be released with the stale
// token. A transport failure mid-resume leaves the record in place; the
// next reconnect retries it.
func (c *Client) resumeHeld(w *wireConn, timeout time.Duration) {
	for res, lease := range c.held {
		got, err := w.resume(res, lease.Token, lease.Fence, timeout)
		switch {
		case err == nil:
			c.held[res] = got
			c.stats.ResumedOK++
		case Retryable(err):
			// Transport or transient: resolved by a later reconnect.
			return
		default:
			delete(c.held, res)
			c.stats.ResumedLost++
		}
	}
}

// drop discards a connection whose round trip failed at the transport
// level — but only if it is still the current one; with concurrent
// callers another goroutine may already have replaced it, and closing
// the replacement would fail its in-flight ops for nothing.
func (c *Client) drop(w *wireConn) {
	c.cur.CompareAndSwap(w, nil)
	w.close()
}

// backoff inserts the retry delay for attempt: the server's retry-after
// hint when it sent one, else the policy band, either no wider than Cap,
// jittered to [band/2, band) by the seeded stream. The sleep happens
// outside the mutex so one backing-off goroutine never stalls the
// others; the jitter draw itself is serialized, which keeps single-actor
// schedules (the chaos campaigns) exactly reproducible.
func (c *Client) backoff(attempt int, hint time.Duration) {
	band := c.policy.band(attempt)
	if hint > 0 {
		band = min(hint, c.policy.Cap)
	}
	half := band / 2
	if half <= 0 {
		half = 1
	}
	c.mu.Lock()
	d := half + time.Duration(c.str.Intn(int64(half)))
	c.mu.Unlock()
	time.Sleep(d)
	c.mu.Lock()
	c.stats.Retries++
	c.mu.Unlock()
}

// retry runs req through the retry loop, on a live connection and
// outside the client mutex. A typed refusal comes back as its error. A
// release that an earlier attempt may have landed (a transport retry) is
// complete on any verdict that proves the token no longer holds the
// resource.
func (c *Client) retry(req Request) (Response, error) {
	var lastErr error
	transportRetried := false
	for attempt := 0; attempt < c.policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			hint, _ := RetryAfterHint(lastErr)
			c.backoff(attempt-1, hint)
		}
		w, err := c.connect()
		if err != nil {
			if !Retryable(err) {
				return Response{}, err
			}
			lastErr = err
			continue
		}
		resp, err := w.roundTrip(req, time.Duration(c.opTimeout.Load()))
		if err == nil && resp.Op == OpError {
			err = codeError(resp)
		}
		switch {
		case err == nil:
			return resp, nil
		case req.Op == OpRelease && transportRetried && isReleaseSettled(err):
			return Response{Op: OpOK}, nil
		}
		lastErr = err
		if isTransport(err) {
			c.drop(w)
			transportRetried = true
			continue
		}
		if !Retryable(err) {
			return Response{}, err
		}
	}
	c.mu.Lock()
	c.stats.GaveUp++
	c.mu.Unlock()
	return Response{}, fmt.Errorf("service: gave up after %d attempts: %w", c.policy.MaxAttempts, lastErr)
}

// isReleaseSettled reports whether err proves the lease is no longer
// held by this token (so a retried release is complete).
func isReleaseSettled(err error) bool {
	return errors.Is(err, ErrNotHeld) || errors.Is(err, ErrLeaseExpired) ||
		errors.Is(err, ErrRevoked) || errors.Is(err, ErrFenced)
}
