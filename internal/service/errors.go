package service

import (
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"
)

// The typed outcomes of service operations. Every non-grant outcome is
// one of these sentinels (possibly wrapped with context), so callers —
// the wire layer, the load generator, the fault campaigns — classify by
// errors.Is and never by string matching.
var (
	// ErrClosed: the service has shut down; waiters are flushed with it.
	ErrClosed = errors.New("service: closed")
	// ErrQueueFull: the shard's bounded admission queue is at capacity
	// and the request was shed. This is the backpressure half of the
	// paper's delay-insertion argument: instead of letting excess
	// requesters hammer the resource, the service deflects them at
	// admission.
	ErrQueueFull = errors.New("service: admission queue full")
	// ErrShed: a degraded shard refuses to queue waiters at all; the
	// request was shed immediately (shed-load mode).
	ErrShed = errors.New("service: degraded shard shed the request")
	// ErrWaitTimeout: the waiter's MaxWait elapsed before a grant.
	ErrWaitTimeout = errors.New("service: wait timed out")
	// ErrNoWait: the resource was held and the request did not ask to
	// wait.
	ErrNoWait = errors.New("service: resource held")
	// ErrNotHeld: the release named a token that is not the resource's
	// current lease (never granted, already released, or revoked).
	ErrNotHeld = errors.New("service: lease not held")
	// ErrLeaseExpired: the release named a token whose lease already
	// expired — the typed signal a slow or crashed-and-recovered client
	// sees exactly once per lost lease.
	ErrLeaseExpired = errors.New("service: lease expired")
	// ErrDegraded: the shard degraded while the waiter was queued; the
	// waiter is flushed with this typed error and may retry (retries are
	// then shed or granted immediately, never queued).
	ErrDegraded = errors.New("service: shard degraded, waiter flushed")
	// ErrRevoked: the lease was administratively revoked while queued
	// waiters were flushed (Close during revoke-and-drain paths).
	ErrRevoked = errors.New("service: lease revoked")
	// ErrFenced: the release or resume named a lease that has been fenced
	// off — the resource has granted a newer lease since, so the caller's
	// claim is a zombie's. Distinct from ErrNotHeld so a reconnected
	// client can tell "my lease is simply gone" from "someone else holds
	// it now and my stale token must never release theirs".
	ErrFenced = errors.New("service: lease fenced off")
	// ErrDraining: the service is draining for shutdown; new acquires are
	// refused and queued waiters are flushed with it. Retryable — against
	// a replica, or after the drain's retry-after hint.
	ErrDraining = errors.New("service: draining")
)

// RetryAfterError wraps a shed-class sentinel with the server's back-off
// hint (the wire's retry-after field): the server inserting a delay into
// the client's retry loop, the same anti-herd move the paper makes in
// spin loops. errors.Is/As see through it.
type RetryAfterError struct {
	Err   error
	After time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.After)
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// RetryAfterHint extracts the server's back-off hint, if any.
func RetryAfterHint(err error) (time.Duration, bool) {
	var ra *RetryAfterError
	if errors.As(err, &ra) && ra.After > 0 {
		return ra.After, true
	}
	return 0, false
}

// Retryable classifies an operation error as transient (retry may
// succeed: load shedding, timeouts, drain, transport faults) versus
// fatal (retrying cannot help: protocol violations, lost leases, bad
// config). Unknown errors are fatal — a retry loop must not spin on
// surprises.
func Retryable(err error) bool {
	switch {
	case err == nil:
		return false
	case errors.Is(err, ErrQueueFull),
		errors.Is(err, ErrShed),
		errors.Is(err, ErrDegraded),
		errors.Is(err, ErrDraining),
		errors.Is(err, ErrWaitTimeout):
		return true
	case errors.Is(err, ErrNotHeld),
		errors.Is(err, ErrLeaseExpired),
		errors.Is(err, ErrRevoked),
		errors.Is(err, ErrFenced),
		errors.Is(err, ErrNoWait),
		errors.Is(err, ErrClosed):
		return false
	}
	var werr *WireError
	if errors.As(err, &werr) {
		return false
	}
	var cerr *ConfigError
	if errors.As(err, &cerr) {
		return false
	}
	return isTransport(err)
}

// isTransport reports whether err is a connection-level failure (the
// peer vanished, the socket died) rather than a protocol-level verdict.
func isTransport(err error) bool {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return true
	}
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	var nerr net.Error
	return errors.As(err, &nerr)
}

// ConfigError reports an unusable Config or argument (exit-code-2 class
// in the CLIs). Field names the offending Config field or call argument
// so callers can report precisely which knob was wrong; it is empty for
// errors not attributable to a single field.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	if e.Field == "" {
		return "service: config: " + e.Reason
	}
	return "service: config: " + e.Field + ": " + e.Reason
}

func configErr(field, format string, args ...any) error {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

func configErrf(format string, args ...any) error {
	return configErr("", format, args...)
}
