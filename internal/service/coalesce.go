package service

import (
	"io"
	"net"
	"runtime"
	"sync"
	"time"
)

// flushWriter is the delay-inserted write coalescer: frames written
// while the flusher is holding the socket are batched into one Write
// syscall. The hold is the paper's move applied to the transmit path —
// deliberately NOT sending yet raises throughput (fewer syscalls, fuller
// packets) — and it ends the way the paper's delayed response does: on
// an event, with the time-out only as the safety bound. The flusher
// yields to the scheduler after a batch's first frame and keeps yielding
// while each yield sees more frames appended; it writes at the first of
// quiescence (one yield during which nothing was appended: every
// goroutine about to send on this connection has), coalesceThreshold
// pending bytes, or `delay` elapsed. An idle connection therefore pays a
// hand-off to the flusher, not the delay; a busy one batches. A delay of
// zero writes through immediately, with no flusher at all.
//
// Concurrent WriteFrame calls are safe; each frame is written whole
// (never interleaved). Buffered bytes are flushed by Close, so a frame
// accepted before Close is never dropped by the coalescer itself.
//
// The threshold and the delay are checked between yields, so a batch
// can overrun either by whatever the producers append during the one
// yield that crosses it. Memory stays bounded without an explicit cap
// because every producer is window-limited: a server connection has at
// most `window` worker frames outstanding and a client at most `window`
// requests, so the pending buffer tops out near window × max frame size.
type flushWriter struct {
	w     io.Writer
	delay time.Duration
	yield func() // runtime.Gosched; tests stand in their own producers

	mu     sync.Mutex
	buf    []byte // frames accepted since the last flush
	spare  []byte // the previous flush's buffer, recycled
	err    error  // first write error, sticky
	closed bool

	kick chan struct{} // first-frame-since-flush signal, cap 1
	stop chan struct{}
	done chan struct{}
}

// coalesceThreshold is the pending-byte level that ends a hold even
// while producers are still appending: once a batch is already big
// enough to fill a syscall, holding it longer buys nothing and costs
// latency.
const coalesceThreshold = 8 << 10

// newFlushWriter wraps w; with delay > 0 it starts the flusher
// goroutine, which Close stops.
func newFlushWriter(w io.Writer, delay time.Duration) *flushWriter {
	fw := &flushWriter{
		w:     w,
		delay: delay,
		yield: runtime.Gosched,
		buf:   make([]byte, 0, 2048),
		spare: make([]byte, 0, 2048),
		kick:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	if delay > 0 {
		go fw.loop()
	} else {
		close(fw.done)
	}
	return fw
}

// WriteFrame queues (or, with no delay, writes) one whole frame.
func (fw *flushWriter) WriteFrame(frame []byte) error {
	fw.mu.Lock()
	if fw.err != nil {
		err := fw.err
		fw.mu.Unlock()
		return err
	}
	if fw.closed {
		fw.mu.Unlock()
		return net.ErrClosed
	}
	if fw.delay <= 0 {
		// Write-through: the mutex alone serializes writers on the socket.
		_, err := fw.w.Write(frame)
		if err != nil {
			fw.err = err
		}
		fw.mu.Unlock()
		return err
	}
	wasEmpty := len(fw.buf) == 0
	fw.buf = append(fw.buf, frame...)
	fw.mu.Unlock()
	if wasEmpty {
		select {
		case fw.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// loop is the flusher: the first frame after an empty buffer starts a
// hold, and everything that accumulated by its end leaves in one
// syscall. Close ends the loop after a final flush.
func (fw *flushWriter) loop() {
	defer close(fw.done)
	for {
		select {
		case <-fw.kick:
			fw.hold()
			fw.flush()
		case <-fw.stop:
			fw.flush()
			return
		}
	}
}

// hold yields the flusher's processor to the connection's producers
// until a yield passes with nothing appended, the batch reaches
// coalesceThreshold, or the delay — a bound read off the clock, never a
// timer that has to fire — runs out. A closed writer accepts no frames,
// so Close ends a hold at the next yield.
func (fw *flushWriter) hold() {
	start := time.Now()
	seen := fw.pending()
	for {
		fw.yield()
		n := fw.pending()
		if n == seen || n >= coalesceThreshold || time.Since(start) >= fw.delay {
			return
		}
		seen = n
	}
}

// pending reports the bytes buffered since the last flush.
func (fw *flushWriter) pending() int {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return len(fw.buf)
}

// flush writes the pending buffer. Only the flusher goroutine calls it,
// so the socket write happens outside the mutex and producers keep
// appending to the swapped-in spare buffer meanwhile.
func (fw *flushWriter) flush() {
	fw.mu.Lock()
	if len(fw.buf) == 0 || fw.err != nil {
		fw.mu.Unlock()
		return
	}
	out := fw.buf
	fw.buf = fw.spare[:0]
	fw.mu.Unlock()
	_, err := fw.w.Write(out)
	fw.mu.Lock()
	fw.spare = out[:0]
	if err != nil && fw.err == nil {
		fw.err = err
	}
	fw.mu.Unlock()
}

// Err reports the sticky first write error.
func (fw *flushWriter) Err() error {
	fw.mu.Lock()
	defer fw.mu.Unlock()
	return fw.err
}

// Close stops the flusher after a final flush of anything buffered.
// Idempotent; returns the sticky write error, if any.
func (fw *flushWriter) Close() error {
	fw.mu.Lock()
	if fw.closed {
		fw.mu.Unlock()
		<-fw.done
		return fw.Err()
	}
	fw.closed = true
	fw.mu.Unlock()
	if fw.delay > 0 {
		close(fw.stop)
	}
	<-fw.done
	return fw.Err()
}
