// The resilient client: the serving-path rendering of the paper's
// delay-insertion argument applied to retries. A connection reset or a
// shed is the re-arrival herd problem all over again — every affected
// client would re-dial and re-acquire at once, which is the test&set
// stampede the paper fixes with calibrated delays. The ResilientClient
// therefore retries behind a capped exponential backoff quantized to
// bands (the locks.Tuning band idea) with seeded jitter inside the
// band, honors the server's retry-after hints (the server inserting the
// delay), and re-validates held leases by fencing token after every
// reconnect so a zombie can never double-release.
package service

import (
	"errors"
	"fmt"
	"sync"
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

// ResilientOptions tune a ResilientClient.
type ResilientOptions struct {
	// OpTimeout bounds each round trip (default 1s); it doubles as the
	// propagated acquire deadline.
	OpTimeout time.Duration
	// DialTimeout bounds each (re)connect (default OpTimeout).
	DialTimeout time.Duration
	// Retry is the backoff schedule.
	Retry RetryPolicy
	// Seed drives the jitter stream; equal seeds yield equal retry
	// schedules, which is what keeps chaos campaigns reproducible.
	Seed uint64
	// Pipeline, when ≥ 2, runs the underlying connection in pipelined
	// mode (wire v3) with that in-flight window, letting concurrent
	// goroutines share this ResilientClient instead of serializing on
	// one round trip. ≤ 1 keeps the lock-step connection.
	Pipeline int
	// FlushDelay, when positive, coalesces the pipelined connection's
	// request frames: concurrent ops batch into one write syscall, held
	// until the senders go quiet and for this long at most (only
	// meaningful with Pipeline ≥ 2).
	FlushDelay time.Duration
}

// ResilientStats counts what the retry loop did; all monotonic.
type ResilientStats struct {
	Dials       uint64 `json:"dials"`
	Reconnects  uint64 `json:"reconnects"`
	Retries     uint64 `json:"retries"`
	ResumedOK   uint64 `json:"resumed_ok"`
	ResumedLost uint64 `json:"resumed_lost"`
	GaveUp      uint64 `json:"gave_up"`
}

// ResilientClient wraps the wire client with reconnect, typed
// retryable-vs-fatal classification, jittered-delay backoff, and
// fenced lease resumption. It is safe for concurrent use: operations
// run outside the client's mutex, so with Pipeline ≥ 2 many goroutines
// genuinely share one pipelined connection; without it they serialize
// on the underlying Client's round trip, like before.
type ResilientClient struct {
	addr string
	opt  ResilientOptions

	mu     sync.Mutex
	cl     *Client
	str    faults.Stream
	held   map[string]Lease // resource → lease to re-validate on reconnect
	stats  ResilientStats
	closed bool
}

// NewResilient builds a resilient client for addr; the first connection
// is dialed lazily on the first operation.
func NewResilient(addr string, opt ResilientOptions) *ResilientClient {
	if opt.OpTimeout <= 0 {
		opt.OpTimeout = time.Second
	}
	if opt.DialTimeout <= 0 {
		opt.DialTimeout = opt.OpTimeout
	}
	opt.Retry = opt.Retry.withDefaults()
	return &ResilientClient{
		addr: addr,
		opt:  opt,
		str:  faults.NewStream(opt.Seed),
		held: make(map[string]Lease),
	}
}

// Stats returns a copy of the retry-loop counters.
func (rc *ResilientClient) Stats() ResilientStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.stats
}

// Held returns the leases the client believes it holds (post-resume
// truth after the latest reconnect).
func (rc *ResilientClient) Held() []Lease {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := make([]Lease, 0, len(rc.held))
	for _, l := range rc.held {
		out = append(out, l)
	}
	return out
}

// Close drops the connection; held-lease records are kept (the server's
// sweeper reclaims them by TTL).
func (rc *ResilientClient) Close() error {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.closed = true
	if rc.cl != nil {
		err := rc.cl.Close()
		rc.cl = nil
		return err
	}
	return nil
}

// connectLocked returns the live connection, dialing (and resuming held
// leases) if needed.
func (rc *ResilientClient) connectLocked() (*Client, error) {
	if rc.closed {
		return nil, ErrClosed
	}
	if rc.cl != nil {
		return rc.cl, nil
	}
	cl, err := DialTimeout(rc.addr, rc.opt.DialTimeout)
	if err != nil {
		return nil, err
	}
	cl.SetOpTimeout(rc.opt.OpTimeout)
	if rc.opt.Pipeline >= 2 {
		if err := cl.Pipeline(rc.opt.Pipeline, rc.opt.FlushDelay); err != nil {
			cl.Close()
			return nil, err
		}
	}
	rc.stats.Dials++
	if rc.stats.Dials > 1 {
		rc.stats.Reconnects++
	}
	rc.cl = cl
	rc.resumeHeldLocked(cl)
	return cl, nil
}

// resumeHeldLocked re-validates every held lease over a fresh
// connection. A typed loss verdict (expired, revoked, fenced, not held)
// removes the record — the lease is gone and must never be released
// with the stale token. A transport failure mid-resume leaves the
// record in place; the next reconnect retries it.
func (rc *ResilientClient) resumeHeldLocked(cl *Client) {
	for res, lease := range rc.held {
		got, err := cl.Resume(res, lease.Token, lease.Fence)
		switch {
		case err == nil:
			rc.held[res] = got
			rc.stats.ResumedOK++
		case Retryable(err):
			// Transport or transient: resolved by a later reconnect.
			return
		default:
			delete(rc.held, res)
			rc.stats.ResumedLost++
		}
	}
}

// connect takes the mutex around connectLocked.
func (rc *ResilientClient) connect() (*Client, error) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.connectLocked()
}

// drop discards a connection whose round trip failed at the transport
// level — but only if it is still the current one; with concurrent
// callers another goroutine may already have replaced it, and closing
// the replacement would fail its in-flight ops for nothing.
func (rc *ResilientClient) drop(cl *Client) {
	rc.mu.Lock()
	if rc.cl == cl {
		rc.cl = nil
	}
	rc.mu.Unlock()
	cl.Close()
}

// backoff inserts the retry delay for attempt: the server's retry-after
// hint when it sent one, else the policy band, jittered to [band/2,
// band) by the seeded stream. The sleep happens outside the mutex so
// one backing-off goroutine never stalls the others; the jitter draw
// itself is serialized, which keeps single-actor schedules (the chaos
// campaigns) exactly reproducible.
func (rc *ResilientClient) backoff(attempt int, hint time.Duration) {
	band := rc.opt.Retry.band(attempt)
	if hint > 0 {
		band = hint
	}
	half := band / 2
	if half <= 0 {
		half = 1
	}
	rc.mu.Lock()
	d := half + time.Duration(rc.str.Intn(int64(half)))
	rc.mu.Unlock()
	time.Sleep(d)
	rc.mu.Lock()
	rc.stats.Retries++
	rc.mu.Unlock()
}

// do runs one operation through the retry loop. op runs with a live
// connection, outside the client mutex; transportRetried tells it
// whether an earlier attempt may have reached the server (for release
// idempotence).
func (rc *ResilientClient) do(op func(cl *Client, transportRetried bool) error) error {
	var lastErr error
	transportRetried := false
	for attempt := 0; attempt < rc.opt.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			hint, _ := RetryAfterHint(lastErr)
			rc.backoff(attempt-1, hint)
		}
		cl, err := rc.connect()
		if err != nil {
			if !Retryable(err) {
				return err
			}
			lastErr = err
			continue
		}
		err = op(cl, transportRetried)
		if err == nil {
			return nil
		}
		lastErr = err
		if isTransport(err) {
			rc.drop(cl)
			transportRetried = true
			continue
		}
		if !Retryable(err) {
			return err
		}
	}
	rc.mu.Lock()
	rc.stats.GaveUp++
	rc.mu.Unlock()
	return fmt.Errorf("service: gave up after %d attempts: %w", rc.opt.Retry.MaxAttempts, lastErr)
}

// Acquire requests a lease, retrying transient refusals and transport
// faults behind the jittered backoff. A transport retry can observe the
// side effect of its own earlier attempt (the first try's grant landed
// but the response was lost); the fencing token keeps that safe — the
// orphan lease expires by TTL and its stale release would be rejected
// typed.
func (rc *ResilientClient) Acquire(resource, owner string, opt AcquireOptions) (Lease, error) {
	var lease Lease
	err := rc.do(func(cl *Client, _ bool) error {
		got, err := cl.Acquire(resource, owner, opt)
		if err != nil {
			return err
		}
		lease = got
		rc.mu.Lock()
		rc.held[resource] = got
		rc.mu.Unlock()
		return nil
	})
	return lease, err
}

// Release ends a held lease by its fencing token. After a transport
// retry, a typed ErrNotHeld/ErrLeaseExpired/ErrFenced verdict resolves
// to success: the earlier attempt may have landed, and each of those
// verdicts proves this token no longer holds the resource — which is
// all a release needs.
func (rc *ResilientClient) Release(lease Lease) error {
	err := rc.do(func(cl *Client, transportRetried bool) error {
		err := cl.ReleaseFenced(lease.Resource, lease.Token, lease.Fence)
		if err == nil {
			return nil
		}
		if transportRetried && isReleaseSettled(err) {
			return nil
		}
		return err
	})
	rc.mu.Lock()
	if held, ok := rc.held[lease.Resource]; ok && held.Token == lease.Token {
		delete(rc.held, lease.Resource)
	}
	rc.mu.Unlock()
	return err
}

// isReleaseSettled reports whether err proves the lease is no longer
// held by this token (so a retried release is complete).
func isReleaseSettled(err error) bool {
	return errors.Is(err, ErrNotHeld) || errors.Is(err, ErrLeaseExpired) ||
		errors.Is(err, ErrRevoked) || errors.Is(err, ErrFenced)
}

// Ping round-trips a no-op through the retry loop.
func (rc *ResilientClient) Ping() error {
	return rc.do(func(cl *Client, _ bool) error { return cl.Ping() })
}
