// Package loadgen is the closed-loop load generator for the lock-lease
// service: it replays internal/workload signatures over N real TCP
// client connections against a lockserve-protocol server (in-process by
// default, or any -addr), measuring client-observed grant latency,
// throughput, and fairness. The contention point is a network lease
// service, not an in-process lock.
package loadgen

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"iqolb/internal/faults"
	"iqolb/internal/service"
	"iqolb/internal/stats"
	"iqolb/internal/workload"
	"iqolb/locks"
)

// Config describes one load run.
type Config struct {
	// Bench names a workload signature (workload.ByName).
	Bench string `json:"bench"`
	// Clients is the number of concurrent closed-loop TCP clients.
	Clients int `json:"clients"`
	// Addr targets an external lockserve instance; empty spins an
	// in-process server on a loopback ephemeral port (still real TCP).
	Addr string `json:"addr,omitempty"`
	// Server shape (ignored when Addr is set).
	Shards     int            `json:"shards,omitempty"`
	Lock       locks.Kind     `json:"lock,omitempty"`
	Policy     service.Policy `json:"policy,omitempty"`
	QueueDepth int            `json:"queue_depth,omitempty"`
	// Scale divides the signature's critical-section total (0 or 1 =
	// unscaled), exactly like the simulator's -scale.
	Scale int `json:"scale,omitempty"`
	// Seed drives the per-client PRNGs (resource choice and think
	// jitter); the operation sequence is reproducible, the timing is not.
	Seed uint64 `json:"seed,omitempty"`
	// TTL is the per-acquire lease TTL (0 = server default).
	TTL time.Duration `json:"ttl,omitempty"`
	// MaxWait bounds each queued wait (0 = 10s).
	MaxWait time.Duration `json:"max_wait,omitempty"`
}

// resolveParams maps the config onto the effective signature: scaled,
// divisible by the client count.
func (c Config) resolveParams() (workload.Params, error) {
	spec, err := workload.ByName(c.Bench)
	if err != nil {
		return workload.Params{}, err
	}
	p := spec.Params
	if c.Clients < 1 {
		return workload.Params{}, fmt.Errorf("loadgen: clients = %d", c.Clients)
	}
	if p.PollProcs > 0 {
		return workload.Params{}, fmt.Errorf("loadgen: %q uses poller processors, which have no service analogue", c.Bench)
	}
	if s := c.Scale; s > 1 {
		p.TotalCS /= s
	}
	p.TotalCS -= p.TotalCS % c.Clients
	if p.TotalCS < c.Clients {
		p.TotalCS = c.Clients
	}
	return p, nil
}

// work burns roughly n units of private compute (one cheap loop
// iteration per simulated cycle).
func work(n int64) {
	for i := int64(0); i < n; i++ {
	}
}

// clientShard is one client's private measurement state.
type clientShard struct {
	grantWait stats.Histogram // acquire issue → lease granted, ns
	grants    uint64
	sheds     uint64
	timeouts  uint64
	errs      uint64
	lastErr   error
}

// criticalSection runs one closed-loop acquire → csWork → release on cl
// and tallies the outcome.
func (sh *clientShard) criticalSection(cl *service.Client, res, owner string, opt service.AcquireOptions, csWork int64) {
	t0 := time.Now()
	lease, err := cl.Acquire(res, owner, opt)
	if err != nil {
		switch {
		case isShed(err):
			sh.sheds++
		case isTimeout(err):
			sh.timeouts++
		default:
			sh.errs++
			sh.lastErr = err
		}
		return
	}
	sh.grantWait.Add(uint64(time.Since(t0)))
	sh.grants++
	work(csWork)
	if err := cl.Release(res, lease.Token); err != nil {
		sh.errs++
		sh.lastErr = fmt.Errorf("release: %w", err)
	}
}

// merge folds o into sh, keeping the first error.
func (sh *clientShard) merge(o *clientShard) {
	sh.grantWait.Merge(&o.grantWait)
	sh.grants += o.grants
	sh.sheds += o.sheds
	sh.timeouts += o.timeouts
	sh.errs += o.errs
	if sh.lastErr == nil {
		sh.lastErr = o.lastErr
	}
}

// rig is the serving stack one run measures: the connected clients and,
// unless the run targets an external address, the in-process service
// and TCP server behind them.
type rig struct {
	svc     *service.Service // nil when the server is external
	srv     *service.Server
	clients []*service.Client
}

// boot serves sc on a loopback ephemeral port (still real TCP) — or,
// when addr is set, targets that external server instead — and connects
// n clients. On error it unwinds whatever it had started.
func boot(addr string, sc service.Config, so service.ServerOptions, n int) (*rig, error) {
	r := &rig{}
	if addr == "" {
		svc, err := service.New(sc)
		if err != nil {
			return nil, err
		}
		r.svc = svc
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			r.close()
			return nil, err
		}
		addr = ln.Addr().String()
		r.srv = service.NewServerWithOptions(svc, so)
		go r.srv.Serve(ln)
	}
	for i := 0; i < n; i++ {
		c, err := service.Dial(addr)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("loadgen: dial client %d: %w", i, err)
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

// close hangs up the clients, then stops the server and the service.
func (r *rig) close() {
	for _, c := range r.clients {
		c.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
	if r.svc != nil {
		r.svc.Close()
	}
}

// baseConfig is the in-process service shape every mode starts from.
// The zero shard count and queue depth are resolved here (8 and 64, the
// service's own defaults) because the phased artifact records them.
func baseConfig(shards, queue int, lock locks.Kind) service.Config {
	if shards == 0 {
		shards = 8
	}
	if queue == 0 {
		queue = 64
	}
	return service.Config{
		Shards:     shards,
		Lock:       lock,
		QueueDepth: queue,
		DefaultTTL: 30 * time.Second,
		MaxTTL:     time.Minute,
	}
}

// Run executes one load run and returns its result. With no Addr it
// boots an in-process service + TCP server for the duration of the run
// and folds the server's counter snapshot into the result.
func Run(cfg Config) (Result, error) {
	p, err := cfg.resolveParams()
	if err != nil {
		return Result{}, err
	}
	opt := service.AcquireOptions{TTL: cfg.TTL, Wait: true, MaxWait: cfg.MaxWait}
	if opt.MaxWait == 0 {
		opt.MaxWait = 10 * time.Second
	}
	sc := baseConfig(cfg.Shards, cfg.QueueDepth, cfg.Lock)
	sc.Policy = cfg.Policy
	// Connect every client before starting the clock.
	r, err := boot(cfg.Addr, sc, service.ServerOptions{}, cfg.Clients)
	if err != nil {
		return Result{}, err
	}
	defer r.close()

	shards := make([]clientShard, cfg.Clients)
	csPerClient := p.TotalCS / cfg.Clients
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < cfg.Clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			owner := fmt.Sprintf("client-%d", g)
			// One seeded stream per client, split by a golden-ratio stride.
			str := faults.NewStream(cfg.Seed + uint64(g)*0x9e3779b97f4a7c15 + 1)
			for iter := 0; iter < p.Iterations; iter++ {
				for cs := 0; cs < csPerClient; cs++ {
					think := p.ThinkWork
					if p.ThinkJitter > 0 {
						think += str.Intn(p.ThinkJitter)
					}
					work(think)
					res := fmt.Sprintf("res-%d", p.PickLock(str.Intn))
					shards[g].criticalSection(r.clients[g], res, owner, opt, p.CSWork)
				}
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)

	var total clientShard
	perClient := make([]uint64, cfg.Clients)
	for g := range shards {
		total.merge(&shards[g])
		perClient[g] = shards[g].grants
	}
	if total.lastErr != nil {
		return Result{}, fmt.Errorf("loadgen: client error (%d total): %w", total.errs, total.lastErr)
	}
	res := Result{
		Stamp:        Stamp{SchemaVersion},
		Bench:        cfg.Bench,
		Lock:         string(cfg.Lock),
		Policy:       string(cfg.Policy),
		Clients:      cfg.Clients,
		Shards:       cfg.Shards,
		QueueDepth:   cfg.QueueDepth,
		Seed:         cfg.Seed,
		Grants:       total.grants,
		Sheds:        total.sheds,
		Timeouts:     total.timeouts,
		Errors:       total.errs,
		WallNS:       wall.Nanoseconds(),
		Throughput:   float64(total.grants) / wall.Seconds(),
		Fairness:     stats.Jain(perClient),
		PerClientOps: perClient,
		GrantWait:    total.grantWait,
		GrantP50:     total.grantWait.Percentile(50),
		GrantP99:     total.grantWait.Percentile(99),
		GrantP999:    total.grantWait.Percentile(99.9),
	}
	if r.svc != nil {
		snap := r.svc.Snapshot()
		res.Server = &ServerTotals{
			Policy:           string(r.svc.Policy()),
			Counters:         snap.Totals,
			DegradedShards:   snap.Degraded,
			ServerGrantP99NS: snap.GrantWaitNS.Percentile(99),
		}
	}
	return res, nil
}

func isShed(err error) bool {
	return errors.Is(err, service.ErrShed) || errors.Is(err, service.ErrQueueFull) || errors.Is(err, service.ErrDegraded)
}

func isTimeout(err error) bool { return errors.Is(err, service.ErrWaitTimeout) }
