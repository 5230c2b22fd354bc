package main

// sut.go is the benchmark's whole view of the program under test: it is
// the only non-test file here that imports the module's packages, and
// every call into the program goes through the adapters below. The rest
// of the benchmark sees only the small local types they return.
//
// Pinned surface — what an API change has to keep, or change here:
//
//	iqolb/internal/service
//	  New(Config{QueueDepth, DefaultTTL, MaxTTL}), (*Service).Acquire,
//	  ReleaseFenced, Snapshot, Close; Backend
//	  NewServerWithOptions(Backend, ServerOptions{FlushDelay, Window}),
//	  (*Server).Serve, Close
//	  Dial, NewClient, (*Client).SetOpTimeout, Pipeline, Acquire,
//	  ReleaseFenced, Close
//	  AppendRequest, AppendResponse, NewDecoder, (*Decoder).ReadRequest,
//	  ReadResponse; Request, Response, OpAcquire, OpGranted,
//	  WireVersion2, WireVersion3
//	  Lease{Token, Fence}, AcquireOptions{TTL, Wait, MaxWait}
//	  Snapshot{Totals, LiveLeases, GrantWaitNS, HoldNS}, Counters
//	iqolb/locks
//	  New, Kinds, KindMCS, WithHooks, Hooks{Handoff}
//	iqolb/internal/stats
//	  Histogram (as the Hooks sink and the Snapshot fields), Node
//	iqolb
//	  RunSpec, Spec{Bench, System, Procs, Scale}, ErrCycleLimit,
//	  Result{Cycles, BusTransactions, TearOffs, LockHandoffMean, Stats}
//
// internal/loadgen, internal/lockbench and internal/wirebench are
// deliberately not used: they are program code a later change may rewrite.

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"iqolb"
	"iqolb/internal/service"
	"iqolb/internal/stats"
	"iqolb/locks"
)

const (
	// queueDepth is at least the most acquires the benchmark can have
	// outstanding on one shard (4 connections x window 64), so a waiter
	// is never shed and no operation fails by design.
	queueDepth = 256
	leaseTTL   = 2 * time.Second
	// opTimeout bounds every client op, so a wedged run ends as a failed
	// op and not as a hang.
	opTimeout = 30 * time.Second
)

// lease is the part of a granted lease the benchmark keeps.
type lease struct{ token, fence uint64 }

// serverOptions is the serving configuration a workload chooses.
type serverOptions struct {
	flush  time.Duration // server FlushDelay; 0 = write-through
	window int           // server per-connection window
	// wrapListener, when set, lets the traced run count socket calls.
	wrapListener func(net.Listener) net.Listener
	// wrapBackend, when set, puts a fault between server and service; only
	// the test uses it, to show that the output checks catch a double grant.
	wrapBackend backendWrapper
}

type backendWrapper = func(service.Backend) service.Backend

// server is an in-process service.Service behind a service.Server on a
// loopback TCP listener.
type server struct {
	svc  *service.Service
	srv  *service.Server
	addr string
	done chan error
}

func startServer(o serverOptions) (*server, error) {
	svc, err := newService()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, fmt.Errorf("listen on loopback: %w", err)
	}
	addr := ln.Addr().String()
	if o.wrapListener != nil {
		ln = o.wrapListener(ln)
	}
	var backend service.Backend = svc
	if o.wrapBackend != nil {
		backend = o.wrapBackend(svc)
	}
	s := &server{
		svc:  svc,
		srv:  service.NewServerWithOptions(backend, service.ServerOptions{FlushDelay: o.flush, Window: o.window}),
		addr: addr,
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the server, then the service, and waits for Serve to return.
func (s *server) stop() error {
	err := s.srv.Close()
	s.svc.Close()
	if serr := <-s.done; serr != nil && err == nil {
		err = fmt.Errorf("serve: %w", serr)
	}
	return err
}

func newService() (*service.Service, error) {
	svc, err := service.New(service.Config{QueueDepth: queueDepth, DefaultTTL: leaseTTL, MaxTTL: 2 * leaseTTL})
	if err != nil {
		return nil, fmt.Errorf("service.New: %w", err)
	}
	return svc, nil
}

// coreStats is what the benchmark reads from Service.Snapshot.
type coreStats struct {
	grants, releases, expiries, revocations uint64
	handoffs, immediate, sheds, timeouts    uint64
	live                                    int
	grantWaitP50, grantWaitP99, holdP50     float64 // ns
}

func (s *server) snapshot() coreStats {
	snap := s.svc.Snapshot()
	t := snap.Totals
	return coreStats{
		grants: t.Grants, releases: t.Releases, expiries: t.Expiries, revocations: t.Revocations,
		handoffs: t.Handoffs, immediate: t.ImmediateGrants, sheds: t.Sheds(), timeouts: t.Timeouts,
		live:         snap.LiveLeases,
		grantWaitP50: snap.GrantWaitNS.Percentile(50),
		grantWaitP99: snap.GrantWaitNS.Percentile(99),
		holdP50:      snap.HoldNS.Percentile(50),
	}
}

// client is one connection to the server: lock-step when window is 1,
// pipelined (wire v3) with the given flush delay otherwise.
type client struct{ c *service.Client }

func dial(addr string, window int, flush time.Duration, wrapConn func(net.Conn) net.Conn) (*client, error) {
	var c *service.Client
	if wrapConn == nil {
		var err error
		if c, err = service.Dial(addr); err != nil {
			return nil, err
		}
	} else {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		c = service.NewClient(wrapConn(conn))
	}
	c.SetOpTimeout(opTimeout)
	if window > 1 {
		if err := c.Pipeline(window, flush); err != nil {
			c.Close()
			return nil, err
		}
	}
	return &client{c}, nil
}

func (c *client) acquire(resource, owner string) (lease, error) {
	l, err := c.c.Acquire(resource, owner, acquireOptions)
	return lease{l.Token, l.Fence}, err
}

func (c *client) release(resource string, l lease) error {
	return c.c.ReleaseFenced(resource, l.token, l.fence)
}

func (c *client) close() { c.c.Close() }

var acquireOptions = service.AcquireOptions{TTL: leaseTTL, Wait: true, MaxWait: opTimeout}

// core is the lease service called in-process, with no sockets.
type core struct{ svc *service.Service }

func newCore() (*core, error) {
	svc, err := newService()
	return &core{svc}, err
}

func (c *core) acquire(resource, owner string) (lease, error) {
	l, err := c.svc.Acquire(resource, owner, acquireOptions)
	return lease{l.Token, l.Fence}, err
}

func (c *core) release(resource string, l lease) error {
	return c.svc.ReleaseFenced(resource, l.token, l.fence)
}

func (c *core) close() { c.svc.Close() }

// wireFrames is one acquire request and its granted response, as a
// workload's client and server put them on the wire.
type wireFrames struct {
	req  service.Request
	resp service.Response
	dec  *service.Decoder
}

func acquireFrames(pipelined bool, resource, owner string) *wireFrames {
	v, id := uint8(service.WireVersion2), uint64(0)
	if pipelined {
		v, id = service.WireVersion3, 1<<20
	}
	deadline := time.Now().Add(opTimeout).UnixNano()
	return &wireFrames{
		req: service.Request{Version: v, ID: id, Op: service.OpAcquire, Resource: resource, Owner: owner,
			TTL: leaseTTL, MaxWait: opTimeout, Wait: true, Deadline: deadline},
		resp: service.Response{Version: v, ID: id, Op: service.OpGranted, Token: 1 << 30, Fence: 1 << 20, Deadline: deadline},
		dec:  service.NewDecoder(),
	}
}

func (f *wireFrames) appendRequest(b []byte) ([]byte, error) { return service.AppendRequest(b, f.req) }
func (f *wireFrames) appendResponse(b []byte) ([]byte, error) {
	return service.AppendResponse(b, f.resp)
}

func (f *wireFrames) readRequest(r io.Reader) error {
	_, err := f.dec.ReadRequest(r)
	return err
}

func (f *wireFrames) readResponse(r io.Reader) error {
	_, err := f.dec.ReadResponse(r)
	return err
}

// guardKind is the lock kind the service's shards use by default.
const guardKind = string(locks.KindMCS)

func lockKinds() []string {
	var out []string
	for _, k := range locks.Kinds() {
		out = append(out, string(k))
	}
	return out
}

// newLock builds a native lock. With hooks it also returns the p50, in
// ns, of the hand-off times (previous Unlock to next lock held) the
// lock's own instrumentation recorded.
func newLock(kind string, hooks bool) (sync.Locker, func() float64, error) {
	if !hooks {
		l, err := locks.New(locks.Kind(kind))
		return l, nil, err
	}
	h := &stats.Histogram{}
	l, err := locks.New(locks.Kind(kind), locks.WithHooks(&locks.Hooks{Handoff: h}))
	return l, func() float64 { return h.Percentile(50) }, err
}

// simCell is one simulated system's run of the raytrace signature.
type simCell struct {
	cycles, busTx, tearOffs uint64
	lockOps                 uint64 // simulated acquires plus releases
	handoffMean             float64
}

func runSim(system string, procs, scale int) (simCell, error) {
	r, err := iqolb.RunSpec(iqolb.Spec{Bench: "raytrace", System: system, Procs: procs, Scale: scale})
	if errors.Is(err, iqolb.ErrCycleLimit) {
		return simCell{}, fmt.Errorf("sim %s: run truncated at the cycle limit: %w", system, err)
	}
	if err != nil {
		return simCell{}, fmt.Errorf("sim %s: %w", system, err)
	}
	return simCell{
		cycles: r.Cycles, busTx: r.BusTransactions, tearOffs: r.TearOffs,
		lockOps:     r.Stats.Total(func(n *stats.Node) uint64 { return n.LockAcquires + n.LockReleases }),
		handoffMean: r.LockHandoffMean,
	}, nil
}
