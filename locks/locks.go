// Package locks is the native-Go counterpart of the simulated lock study:
// the paper's delay-insertion and queue-hand-off ideas realized as real
// goroutine spin locks. Each primitive is the software analogue of one of
// the simulator's systems:
//
//   - TTS — test&test&set with exponential backoff: delay insertion at the
//     requester, the software form of the paper's delayed-response mode
//     (every waiter backs off instead of hammering the line).
//   - Ticket — FIFO ticket lock with proportional backoff: the waiter
//     inserts a delay sized to its queue distance, the closest software
//     relative of the paper's "insert exactly the right delay" argument.
//   - MCS / CLH — queue locks with direct releaser→waiter hand-off, the
//     software analogue of IQOLB/QOLB's single-transfer lock grant: each
//     waiter spins on a private flag and the release touches exactly one
//     of them.
//   - Adaptive — spin-then-queue (in the spirit of Fissile and
//     Reciprocating locks): a brief bounded TTS phase for the uncontended
//     case, falling back to an MCS-style queue in which only the queue
//     head competes for the lock word.
//
// Primitives are built by name from a fixed table: locks.New(kind,
// opts...) constructs any of the five kinds and locks.Kinds() enumerates
// them in the canonical report order (see registry.go).
//
// Every lock takes optional instrumentation hooks feeding internal/stats
// histograms, and optional *Tuning — the inserted-delay parameters
// (backoff seed and cap, optimistic spin budget, ticket spin unit) held
// in atomics so a controller (internal/adaptive) can retune them online
// while the lock is under traffic. Hook callbacks run only on the lock
// holder, so they are serialized per lock and an unsynchronized
// stats.Histogram is safe to feed them.
package locks

import (
	"runtime"
	"time"

	"iqolb/internal/stats"
)

// Lock is one mutual-exclusion primitive. Lock blocks (by spinning and
// yielding) until the calling goroutine holds the lock; Unlock releases
// it. Unlike sync.Mutex, implementations here may hand the lock off in
// FIFO order and may spin — they are built for short critical sections
// under contention, matching the simulated workloads.
type Lock interface {
	// Name returns the primitive's kind name (see Kinds).
	Name() string
	Lock()
	Unlock()
}

// Kind names a lock primitive.
type Kind string

// The built-in primitives, in the canonical (report) order.
const (
	KindTTS      Kind = "tts"
	KindTicket   Kind = "ticket"
	KindMCS      Kind = "mcs"
	KindCLH      Kind = "clh"
	KindAdaptive Kind = "adaptive"
)

// Hooks are optional per-lock instrumentation sinks. Every histogram is
// fed in nanoseconds; nil histograms are skipped, and a nil *Hooks turns
// all timing off (no clock reads on the lock paths).
//
// All callbacks fire on the goroutine that holds the lock — Wait,
// Handoff and OnAcquired right after acquiring, Hold just before
// releasing — so they are serialized by the lock itself and the
// histograms need no further synchronization.
type Hooks struct {
	// Wait records acquire latency: Lock() entry to lock held.
	Wait *stats.Histogram
	// Hold records lock held to Unlock().
	Hold *stats.Histogram
	// Handoff records the previous Unlock() to the next lock held — the
	// native analogue of the simulator's release→acquire hand-off
	// histogram.
	Handoff *stats.Histogram
	// OnAcquired, when non-nil, receives every acquisition's wait and
	// hand-off samples (handoffNS is 0 for a lock's first acquisition).
	// Like the histograms it is invoked by the new holder, so calls are
	// serialized per lock; a sink shared across locks must synchronize
	// itself (the adaptive tuner's telemetry uses atomics).
	OnAcquired func(waitNS, handoffNS uint64)
}

// Option configures a lock at construction.
type Option func(*config)

type config struct {
	hooks *Hooks
	tun   *Tuning
}

// WithHooks attaches instrumentation hooks.
func WithHooks(h *Hooks) Option {
	return func(c *config) { c.hooks = h }
}

// WithTuning attaches a shared delay-parameter block. Several locks may
// share one *Tuning; a controller retunes them all with one store. Locks
// built without this option read an immutable default.
func WithTuning(t *Tuning) Option {
	return func(c *config) { c.tun = t }
}

func buildConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.tun == nil {
		c.tun = defaultTuning
	}
	return c
}

// instr holds the per-lock instrumentation state. holdStart and
// lastRelease are written only by the current holder; the releasing
// atomic store of each lock publishes them to the next holder.
type instr struct {
	h           *Hooks
	holdStart   time.Time
	lastRelease time.Time
}

// start stamps the beginning of an acquire attempt (zero when
// uninstrumented, so the fast path never reads the clock).
func (i *instr) start() time.Time {
	if i.h == nil {
		return time.Time{}
	}
	return time.Now()
}

// acquired records the wait and hand-off samples; called by the new
// holder immediately after acquiring.
func (i *instr) acquired(start time.Time) {
	if i.h == nil {
		return
	}
	now := time.Now()
	wait := uint64(now.Sub(start))
	var handoff uint64
	if !i.lastRelease.IsZero() {
		handoff = uint64(now.Sub(i.lastRelease))
	}
	if i.h.Wait != nil {
		i.h.Wait.Add(wait)
	}
	if i.h.Handoff != nil && !i.lastRelease.IsZero() {
		i.h.Handoff.Add(handoff)
	}
	if i.h.OnAcquired != nil {
		i.h.OnAcquired(wait, handoff)
	}
	i.holdStart = now
}

// releasing records the hold sample and stamps the hand-off origin;
// called by the holder immediately before the releasing store.
func (i *instr) releasing() {
	if i.h == nil {
		return
	}
	now := time.Now()
	if i.h.Hold != nil {
		i.h.Hold.Add(uint64(now.Sub(i.holdStart)))
	}
	i.lastRelease = now
}

// spinLoop burns roughly n loop iterations without touching memory. The
// gc compiler does not eliminate counted empty loops.
func spinLoop(n uint32) {
	for i := uint32(0); i < n; i++ {
	}
}

// backoff is capped exponential backoff: each pause spins twice as long
// as the last, and once the cap is reached it also yields the processor
// so oversubscribed runs (goroutines > GOMAXPROCS) keep making progress.
// The seed and cap come from the lock's Tuning, loaded once per acquire
// (see Tuning.backoff) so an online retune is picked up by the next
// acquisition without an atomic load per pause.
type backoff struct {
	n    uint32
	seed uint32
	cap  uint32
}

func (b *backoff) pause() {
	if b.n == 0 {
		b.n = b.seed
	}
	spinLoop(b.n)
	if b.n < b.cap {
		b.n <<= 1
	} else {
		runtime.Gosched()
	}
}

// waitSpin is the polite flag-polling loop used by the queue locks: short
// constant spins with a periodic yield (the waiter is next in line, so
// long backoff would only stretch the hand-off it is about to receive).
type waitSpin struct {
	rounds uint32
}

func (w *waitSpin) pause() {
	w.rounds++
	if w.rounds%64 == 0 {
		runtime.Gosched()
		return
	}
	spinLoop(defaultBackoffInitial)
}
