// Command lockserve runs the lock-lease service over TCP: named
// resources sharded across native lock primitives (package locks), a
// bounded admission queue whose backpressure is the serving-layer
// analogue of the paper's delay insertion, leases with deadlines, and a
// starvation watchdog that puts a pathological shard into shed-load
// mode (queued waiters flushed, new ones refused, free resources still
// granted) under the same shard lock.
//
//	lockserve -addr 127.0.0.1:7007
//	lockserve -addr 127.0.0.1:0 -shards 16 -lock mcs -policy handoff
//	lockserve -policy broadcast -queue 32 -ttl 2s
//	lockserve -adaptive                      # contention controller live-migrates shard policies
//
// With -adaptive the service runs the per-shard contention controller
// (internal/adaptive): windowed estimators over queue depth, shed rate,
// and acquire rate migrate each shard between handoff and broadcast
// grant policies — and tune the native locks' inserted delays — as the
// offered load shifts. The -policy flag then picks the starting policy,
// and the shutdown snapshot includes a "controller" block.
//
// The serving hot path pipelines: wire-v3 clients carry up to -window
// concurrent requests per connection, and a positive -flush-delay
// coalesces each connection's responses: completions batch into one
// write syscall, held until the connection goes quiet and for
// -flush-delay at most (the paper's inserted delay on the transmit
// path, ended by an event and bounded by a time-out). -pprof serves
// net/http/pprof for profiling the hot path under load.
//
// The bound address is printed on stdout ("listening on <addr>") so
// harnesses can use :0 and scrape the port. SIGINT/SIGTERM shut down
// gracefully: stop accepting, flush queued waiters with the typed
// draining verdict, give live leases -drain-grace to release (then
// revoke stragglers), drain connection goroutines, and print a final
// counter snapshot to stderr. -idle-timeout reaps half-open peers;
// -retry-after attaches the anti-herd delay hint to shed-class refusals.
//
// Exit codes follow the repo convention (see README): 0 clean shutdown,
// 1 runtime failure, 2 unusable configuration.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof registers these handlers on the default mux
	"os"
	"os/signal"
	"syscall"
	"time"

	"iqolb/internal/cliconfig"
	"iqolb/internal/service"
	"iqolb/locks"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7007", "TCP listen address (use :0 for an ephemeral port)")
		shards     = flag.Int("shards", 8, "number of resource shards")
		lockKind   = flag.String("lock", "mcs", "shard guard primitive (tts ticket mcs clh adaptive)")
		policy     = flag.String("policy", "handoff", `grant policy: "handoff" (direct transfer) or "broadcast" (wake all, re-contend)`)
		queue      = flag.Int("queue", 64, "bounded admission queue depth per shard")
		ttl        = flag.Duration("ttl", 5*time.Second, "default lease TTL")
		maxTTL     = flag.Duration("max-ttl", 60*time.Second, "maximum client-requested TTL")
		starve     = flag.Duration("starvation-bound", 10*time.Second, "oldest-waiter age that degrades a shard (<0 disables)")
		adapt      = flag.Bool("adaptive", false, "run the contention controller (live per-shard policy migration + lock tuning)")
		ctrlEvery  = flag.Duration("adaptive-interval", 25*time.Millisecond, "controller sampling period (with -adaptive)")
		drainGrace = flag.Duration("drain-grace", 2*time.Second, "graceful-drain window on SIGINT/SIGTERM: live leases get this long to release before revocation (0 = immediate close)")
		idleConn   = flag.Duration("idle-timeout", 2*time.Minute, "reap connections idle this long (half-open peers included; 0 = never)")
		retryAfter = flag.Duration("retry-after", 2*time.Millisecond, "retry-after hint attached to shed-class refusals (0 = no hint)")
		flushDelay = flag.Duration("flush-delay", 0, "coalesce each connection's response frames into one write syscall: held until the connection goes quiet, this long at most (0 = write through)")
		window     = flag.Int("window", service.DefaultWindow, "max concurrently-executing pipelined (wire v3) requests per connection")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
		statsDump  = flag.Bool("stats", true, "print a JSON counter snapshot to stderr on shutdown")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: lockserve [flags]")
		os.Exit(2)
	}

	pol, err := service.ParsePolicy(*policy)
	usage(err)
	kind, err := locks.ParseKind(*lockKind)
	usage(err)
	svc, err := service.New(service.Config{
		Shards:           *shards,
		Lock:             kind,
		Policy:           pol,
		QueueDepth:       *queue,
		DefaultTTL:       *ttl,
		MaxTTL:           *maxTTL,
		StarvationBound:  *starve,
		Adaptive:         *adapt,
		AdaptiveInterval: *ctrlEvery,
		OnDegrade: func(shard int, reason string) {
			fmt.Fprintf(os.Stderr, "lockserve: shard %d degraded: %s\n", shard, reason)
		},
	})
	if err != nil {
		fail(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	fmt.Printf("listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "lockserve: pprof on http://%s/debug/pprof/\n", pln.Addr())
		// DefaultServeMux carries the net/http/pprof handlers via the
		// blank import above.
		go http.Serve(pln, nil)
	}

	srv := service.NewServerWithOptions(svc, service.ServerOptions{
		IdleTimeout: *idleConn,
		RetryAfter:  *retryAfter,
		FlushDelay:  *flushDelay,
		Window:      *window,
	})
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "lockserve: %v: shutting down\n", s)
	case err := <-serveErr:
		if err != nil {
			fail(err)
		}
	}

	// Graceful: stop accepting, flush queued waiters (typed ErrDraining),
	// give live leases the grace window to release, revoke stragglers,
	// then close sockets and drain connection goroutines.
	if *drainGrace > 0 {
		if err := srv.Drain(*drainGrace); err != nil {
			fail(err)
		}
	}
	svc.Close()
	if err := srv.Close(); err != nil {
		fail(err)
	}
	if *statsDump {
		enc := json.NewEncoder(os.Stderr)
		enc.SetIndent("", "  ")
		if err := enc.Encode(svc.Snapshot()); err != nil {
			fail(err)
		}
	}
}

func usage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockserve:", err)
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lockserve:", err)
	os.Exit(cliconfig.ExitCode(err))
}
