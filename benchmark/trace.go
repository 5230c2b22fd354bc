package main

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run records spans from the benchmark's own code, around each
// call into a layer; spans inside the program are a later change. Spans
// stay in memory until the run ends.

// span is one timed interval. Times are ns since the tracer's epoch; Op
// is shared by the spans of one operation and 0 on structural spans.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Op     uint64 `json:"op,omitempty"`
}

// opRecord is one acquire/release pair as a worker stamps it: compact, so
// recording costs two extra clock reads and an append. It expands into an
// op span with client.acquire and client.release children.
type opRecord struct {
	op             uint64
	rep            int32
	t0, t1, t2, t3 int64 // acquire call, acquire reply, release call, release reply
}

// tracer collects spans. A nil *tracer records nothing, so untraced runs
// pass nil and pay only the nil checks.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	ops   []opRecord
	reps  map[int32]int // repetition number → its span id
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), reps: map[int32]int{}} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its id for end and for children.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = t.now()
	t.mu.Unlock()
}

// addOps takes a worker's records when the worker ends.
func (t *tracer) addOps(ops []opRecord) {
	t.mu.Lock()
	t.ops = append(t.ops, ops...)
	t.mu.Unlock()
}

// maxDumpedOps bounds the op trees written out; every op is recorded and
// counted, but a file of a million spans helps nobody.
const maxDumpedOps = 2000

// dump returns the structural spans plus the first maxDumpedOps op trees.
func (t *tracer) dump() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]span(nil), t.spans...)
	for i, o := range t.ops {
		if i == maxDumpedOps {
			break
		}
		id := len(out) + 1
		out = append(out,
			span{ID: id, Parent: t.reps[o.rep], Name: "op", Start: o.t0, End: o.t3, Op: o.op},
			span{ID: id + 1, Parent: id, Name: "client.acquire", Start: o.t0, End: o.t1, Op: o.op},
			span{ID: id + 2, Parent: id, Name: "client.release", Start: o.t2, End: o.t3, Op: o.op})
	}
	return out
}

// ioCounts counts socket calls at the boundary between the program and
// the kernel, on one side (client or server) of the traced connections.
type ioCounts struct {
	reads, writes, writeBytes atomic.Uint64
}

type ioSnapshot struct{ reads, writes, writeBytes uint64 }

func (c *ioCounts) snapshot() ioSnapshot {
	return ioSnapshot{c.reads.Load(), c.writes.Load(), c.writeBytes.Load()}
}

func (a ioSnapshot) sub(b ioSnapshot) ioSnapshot {
	return ioSnapshot{a.reads - b.reads, a.writes - b.writes, a.writeBytes - b.writeBytes}
}

type countingConn struct {
	net.Conn
	c *ioCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	c.c.reads.Add(1)
	return c.Conn.Read(p)
}

func (c countingConn) Write(p []byte) (int, error) {
	c.c.writes.Add(1)
	c.c.writeBytes.Add(uint64(len(p)))
	return c.Conn.Write(p)
}

func (c *ioCounts) wrapConn(conn net.Conn) net.Conn { return countingConn{conn, c} }

type countingListener struct {
	net.Listener
	c *ioCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.c}, nil
}

func (c *ioCounts) wrapListener(ln net.Listener) net.Listener { return countingListener{ln, c} }

// memMark is the runtime's allocation and GC state at a boundary.
type memMark struct {
	mallocs, gcCycles uint64
	gcPause           time.Duration
}

func readMemMark() memMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memMark{m.Mallocs, uint64(m.NumGC), time.Duration(m.PauseTotalNs)}
}
