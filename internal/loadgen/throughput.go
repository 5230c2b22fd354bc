// The open-loop pipelined throughput runner: where loadgen.Run models
// closed-loop actors (one op in flight per client, think time between),
// RunThroughput saturates the wire itself — each connection carries a
// window of concurrent ops, optionally coalesced by the delay-inserted
// flush writer on both ends. Sweeping window × flush-delay is the
// serving-path rendition of the paper's experiment: the inserted hold
// buys throughput (fewer, fuller syscalls) where a window keeps frames
// coming, ends as soon as the connection goes quiet where it does not,
// and the flush delay only bounds it; the committed
// BENCH_throughput.json shows every cell.
package loadgen

import (
	"fmt"
	"sync"
	"time"

	"iqolb/internal/faults"
	"iqolb/internal/service"
	"iqolb/internal/stats"
	"iqolb/locks"
)

// ThroughputConfig describes one open-loop throughput run.
type ThroughputConfig struct {
	// Clients is the number of TCP connections.
	Clients int `json:"clients"`
	// Window is the per-connection in-flight cap; 1 = the lock-step
	// one-in-flight baseline (no pipelining at all).
	Window int `json:"window"`
	// FlushDelay turns on write coalescing on BOTH ends and bounds its
	// hold (0 = write through).
	FlushDelay time.Duration `json:"flush_delay_ns"`
	// OpsPerClient is the acquire+release pairs each connection issues;
	// the op schedule is seed-deterministic even though timing is not.
	OpsPerClient int `json:"ops_per_client"`
	// Resources spreads ops over a shared pool of this many resources;
	// 0 (the default) gives every worker a private resource, so the
	// lock layer never contends and the wire path, not lease hand-off,
	// is what saturates — the quantity this benchmark measures. A
	// positive pool adds real lease contention on top.
	Resources int `json:"resources"`
	// Seed drives the per-worker resource choice.
	Seed uint64 `json:"seed"`
	// Addr targets an external server; empty boots an in-process one
	// with the matching FlushDelay/Window server options.
	Addr string `json:"addr,omitempty"`
	// Server shape (ignored when Addr is set).
	Shards     int        `json:"shards,omitempty"`
	Lock       locks.Kind `json:"lock,omitempty"`
	QueueDepth int        `json:"queue_depth,omitempty"`
	// TTL is the per-acquire lease TTL (0 = server default).
	TTL time.Duration `json:"ttl,omitempty"`
}

func (c ThroughputConfig) withDefaults() ThroughputConfig {
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Window <= 0 {
		c.Window = 1
	}
	if c.OpsPerClient <= 0 {
		c.OpsPerClient = 2000
	}
	if c.Resources < 0 {
		c.Resources = 0
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	return c
}

// RunThroughput executes one open-loop run: Clients connections, each
// with Window workers sharing the (pipelined when Window > 1)
// connection, hammering acquire/release pairs with no think time. Ops
// counts wire round trips (each acquire and each release is one op).
func RunThroughput(cfg ThroughputConfig) (ThroughputResult, error) {
	cfg = cfg.withDefaults()

	r, err := boot(cfg.Addr, baseConfig(cfg.Shards, cfg.QueueDepth, cfg.Lock),
		service.ServerOptions{FlushDelay: cfg.FlushDelay, Window: cfg.Window}, cfg.Clients)
	if err != nil {
		return ThroughputResult{}, err
	}
	defer r.close()
	clients := r.clients
	for _, c := range clients {
		c.SetOpTimeout(30 * time.Second)
		if cfg.Window > 1 {
			if err := c.Pipeline(cfg.Window, cfg.FlushDelay); err != nil {
				return ThroughputResult{}, err
			}
		}
	}

	// Workers per connection = the window: the open loop keeps the
	// window full. Each worker gets its own seeded stream and its share
	// of the connection's op budget (deterministic split).
	type workerShard struct {
		opWait stats.Histogram
		ops    uint64
		errs   uint64
		last   error
	}
	workers := cfg.Window
	shards := make([]workerShard, cfg.Clients*workers)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < cfg.Clients; g++ {
		for w := 0; w < workers; w++ {
			pairs := cfg.OpsPerClient / workers
			if w < cfg.OpsPerClient%workers {
				pairs++
			}
			wg.Add(1)
			go func(g, w, pairs int) {
				defer wg.Done()
				sh := &shards[g*workers+w]
				cl := clients[g]
				owner := fmt.Sprintf("c%d-w%d", g, w)
				str := faults.NewStream(cfg.Seed + uint64(g)*0x9e3779b97f4a7c15 + uint64(w)*0x6c62272e07bb0143 + 1)
				private := fmt.Sprintf("res-%d-%d", g, w)
				for i := 0; i < pairs; i++ {
					res := private
					if cfg.Resources > 0 {
						res = fmt.Sprintf("res-%d", str.Intn(int64(cfg.Resources)))
					}
					t0 := time.Now()
					lease, err := cl.Acquire(res, owner, service.AcquireOptions{
						TTL:     cfg.TTL,
						Wait:    true,
						MaxWait: 30 * time.Second,
					})
					if err != nil {
						sh.errs++
						sh.last = fmt.Errorf("acquire: %w", err)
						continue
					}
					sh.opWait.Add(uint64(time.Since(t0)))
					sh.ops++
					t1 := time.Now()
					if err := cl.ReleaseFenced(res, lease.Token, lease.Fence); err != nil {
						sh.errs++
						sh.last = fmt.Errorf("release: %w", err)
						continue
					}
					sh.opWait.Add(uint64(time.Since(t1)))
					sh.ops++
				}
			}(g, w, pairs)
		}
	}
	wg.Wait()
	wall := time.Since(start)

	res := ThroughputResult{
		Stamp:        Stamp{SchemaVersion},
		Clients:      cfg.Clients,
		Window:       cfg.Window,
		FlushDelayNS: cfg.FlushDelay.Nanoseconds(),
		OpsPerClient: cfg.OpsPerClient,
		Resources:    cfg.Resources,
		Seed:         cfg.Seed,
		WallNS:       wall.Nanoseconds(),
	}
	var firstErr error
	for i := range shards {
		sh := &shards[i]
		res.OpWait.Merge(&sh.opWait)
		res.Ops += sh.ops
		res.Errors += sh.errs
		if firstErr == nil && sh.last != nil {
			firstErr = sh.last
		}
	}
	if firstErr != nil {
		return ThroughputResult{}, fmt.Errorf("loadgen: throughput client error (%d total): %w", res.Errors, firstErr)
	}
	res.Throughput = float64(res.Ops) / wall.Seconds()
	res.OpP50 = res.OpWait.Percentile(50)
	res.OpP99 = res.OpWait.Percentile(99)
	res.OpP999 = res.OpWait.Percentile(99.9)
	return res, nil
}
