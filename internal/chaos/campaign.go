package chaos

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"iqolb/internal/linearize"
	"iqolb/internal/report"
	"iqolb/internal/service"
)

// The chaos campaign: kind × seed runs of a real client/server serving
// path with a deterministic fault proxy per client, each run classified
// and checked. Per run it asserts the two invariants the repo trusts:
//
//   - Lease conservation: Grants = Releases + Expiries + Revocations +
//     Live, read from the service's own counters after a graceful
//     drain.
//   - Linearizability: the server-boundary history (every acquire,
//     release, resume, and expiry the service actually executed,
//     retries and duplicates included) checks against the sequential
//     lease model, split per resource.
//
// Classification is deliberately coarse — booleans over the resilient
// clients' counters and the proxies' injection logs, never raw counts —
// so the committed artifact is byte-identical across runs of one seed
// even though retry timing varies.

// Campaign outcome classes, best to worst.
const (
	// OutcomeClean: no faults fired and no retries were needed.
	OutcomeClean = "clean"
	// OutcomeAbsorbed: faults fired but the retry/backoff layer absorbed
	// them without any reconnect.
	OutcomeAbsorbed = "absorbed"
	// OutcomeRecovered: at least one connection died (or a lease was
	// lost to TTL) and the client recovered by reconnect + fenced
	// resume.
	OutcomeRecovered = "recovered"
	// OutcomeDegraded: some operation exhausted its retry budget and
	// failed typed (no hang, but work was lost).
	OutcomeDegraded = "degraded"
)

// ReportSchemaVersion identifies the BENCH_chaos.json layout.
const ReportSchemaVersion = 1

// CampaignConfig scales a campaign; zero fields select defaults.
type CampaignConfig struct {
	// Kinds to run, one per row (default: every kind). A "none" control
	// row (clean proxy) is always prepended.
	Kinds []Kind
	// Seeds to run per kind (default 1..8).
	Seeds []uint64
	// Clients / OpsPerClient / Resources shape each run's workload
	// (defaults 3 / 5 / 2). Kept small on purpose: each resource's
	// history must fit the linearize checker's 64-op bound even with
	// retries.
	Clients      int
	OpsPerClient int
	Resources    int
	// TTL is each lease's lifetime (default 300ms) — short, so orphaned
	// leases (a grant whose response was truncated) expire inside the
	// run and the reconnect-fencing path is exercised.
	TTL time.Duration
	// DrainGrace is the graceful-drain window at the end of each run
	// (default 150ms).
	DrainGrace time.Duration
	// Window, when ≥ 2, runs every client connection pipelined (wire
	// v3) with that in-flight window, each client's ops spread across
	// `Window` concurrent workers on the shared connection. The op
	// schedule per resource is unchanged (worker w takes ops j with
	// j mod Window = w), so each resource's history still fits the
	// linearize checker's bound. ≤ 1 = lock-step clients.
	Window int
	// OnRun, when non-nil, observes each finished run (progress
	// reporting).
	OnRun func(RunResult)
}

func (c CampaignConfig) withDefaults() CampaignConfig {
	if len(c.Kinds) == 0 {
		c.Kinds = Kinds()
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{1, 2, 3, 4, 5, 6, 7, 8}
	}
	if c.Clients == 0 {
		c.Clients = 3
	}
	if c.OpsPerClient == 0 {
		c.OpsPerClient = 5
	}
	if c.Resources == 0 {
		c.Resources = 2
	}
	if c.TTL == 0 {
		c.TTL = 300 * time.Millisecond
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = 150 * time.Millisecond
	}
	return c
}

// RunResult is one kind × seed run's verdict. Only deterministic fields
// belong here (no wall times, no raw retry counts): the committed
// artifact must be byte-identical across runs of the same seed.
type RunResult struct {
	Kind string `json:"kind"`
	Seed uint64 `json:"seed"`
	// Outcome is one of the Outcome* classes.
	Outcome string `json:"outcome"`
	// Conservation is "ok" or the violated equation.
	Conservation string `json:"conservation"`
	// Linearizable reports the per-resource model check.
	Linearizable bool `json:"linearizable"`
	// Failures lists the typed failure classes seen (sorted, unique);
	// empty for runs where every operation eventually succeeded.
	Failures []string `json:"failures,omitempty"`
}

// Failed reports whether the run violates an invariant (a degraded
// outcome is a legal classification; broken conservation or
// linearizability is not).
func (r RunResult) Failed() bool {
	return r.Conservation != "ok" || !r.Linearizable
}

// Report is the schema-versioned campaign artifact.
type Report struct {
	SchemaVersion int            `json:"schema_version"`
	Runs          []RunResult    `json:"runs"`
	Outcomes      map[string]int `json:"outcomes"`
	// Failures counts runs with violated invariants; a clean campaign
	// has 0.
	Failures int `json:"failures"`
}

// WriteJSON writes the indented artifact.
func (r *Report) WriteJSON(w io.Writer) error { return report.WriteJSON(w, r) }

// RunCampaign executes the full kind × seed grid, sequentially (runs
// share the host's ports and scheduler; sequencing keeps them honest).
func RunCampaign(cfg CampaignConfig) *Report {
	cfg = cfg.withDefaults()
	rep := &Report{SchemaVersion: ReportSchemaVersion, Outcomes: make(map[string]int)}
	rows := append([]string{"none"}, make([]string, 0, len(cfg.Kinds))...)
	for _, k := range cfg.Kinds {
		rows = append(rows, k.String())
	}
	for _, row := range rows {
		var kinds []Kind
		if row != "none" {
			k, _ := Parse(row)
			kinds = []Kind{k}
		}
		for _, seed := range cfg.Seeds {
			res := runOne(row, kinds, seed, cfg)
			rep.Runs = append(rep.Runs, res)
			rep.Outcomes[res.Outcome]++
			if res.Failed() {
				rep.Failures++
			}
			if cfg.OnRun != nil {
				cfg.OnRun(res)
			}
		}
	}
	return rep
}

// ---------------------------------------------------------------------
// Server-boundary history recording.
// ---------------------------------------------------------------------

// recordingBackend wraps the real service as the server's backend,
// logging every executed operation — including retried duplicates,
// which really did execute and really do belong in the history.
type recordingBackend struct {
	svc *service.Service
	rec *service.History
}

// clientID recovers the campaign's client index from its owner name.
func clientID(owner string) int {
	if len(owner) > 1 && owner[0] == 'c' {
		if n, err := strconv.Atoi(owner[1:]); err == nil {
			return n
		}
	}
	return -1
}

func (b *recordingBackend) Acquire(res, owner string, opt service.AcquireOptions) (service.Lease, error) {
	l, p, err := b.Admit(res, owner, opt)
	if p != nil {
		return p.Wait()
	}
	return l, err
}

// Admit records a decided acquire at once and a queued one when its wait
// ends, so the op's interval spans admission to the end of the wait.
func (b *recordingBackend) Admit(res, owner string, opt service.AcquireOptions) (service.Lease, service.Pending, error) {
	call := b.rec.Tick()
	l, p, err := b.svc.Admit(res, owner, opt)
	if p != nil {
		return l, recordedWait{b, p, res, owner, call}, nil
	}
	b.acquired(res, owner, call, l, err)
	return l, nil, err
}

// recordedWait is a queued acquire's Pending, recorded when it ends.
type recordedWait struct {
	b          *recordingBackend
	p          service.Pending
	res, owner string
	call       int64
}

func (w recordedWait) Wait() (service.Lease, error) {
	l, err := w.p.Wait()
	w.b.acquired(w.res, w.owner, w.call, l, err)
	return l, err
}

// acquired logs one acquire, called at tick call, that ends now.
func (b *recordingBackend) acquired(res, owner string, call int64, l service.Lease, err error) {
	in := service.LeaseOp{Verb: service.VerbAcquire, Res: res}
	b.rec.Add(clientID(owner), call, b.rec.Tick(), in, granted(l, err, service.AcquireCode))
}

func (b *recordingBackend) ReleaseFenced(res string, token, fence uint64) error {
	in := service.LeaseOp{Verb: service.VerbRelease, Res: res, Token: token}
	call := b.rec.Tick()
	err := b.svc.ReleaseFenced(res, token, fence)
	b.rec.Add(-1, call, b.rec.Tick(), in, service.ReleaseCode(err))
	return err
}

func (b *recordingBackend) Resume(res string, token, fence uint64) (service.Lease, error) {
	in := service.LeaseOp{Verb: service.VerbResume, Res: res, Token: token}
	call := b.rec.Tick()
	l, err := b.svc.Resume(res, token, fence)
	b.rec.Add(-1, call, b.rec.Tick(), in, granted(l, err, service.ReleaseCode))
	return l, err
}

// granted is the model output of an op that returns a lease: its token,
// or the error's verdict.
func granted(l service.Lease, err error, code func(error) string) any {
	if err != nil {
		return code(err)
	}
	return l.Token
}

func (b *recordingBackend) Drain(grace time.Duration) error { return b.svc.Drain(grace) }
func (b *recordingBackend) Close() error                    { return b.svc.Close() }

// failureClass buckets a gave-up operation's error for the artifact.
func failureClass(err error) string {
	switch {
	case errors.Is(err, service.ErrWaitTimeout):
		return "timeout"
	case errors.Is(err, service.ErrQueueFull),
		errors.Is(err, service.ErrShed),
		errors.Is(err, service.ErrDegraded):
		return "shed"
	case errors.Is(err, service.ErrDraining):
		return "draining"
	case errors.Is(err, service.ErrNotHeld),
		errors.Is(err, service.ErrLeaseExpired),
		errors.Is(err, service.ErrRevoked),
		errors.Is(err, service.ErrFenced):
		return "lease-lost"
	}
	return "transport"
}

// ---------------------------------------------------------------------
// One kind × seed run.
// ---------------------------------------------------------------------

func runOne(kindName string, kinds []Kind, seed uint64, cfg CampaignConfig) RunResult {
	out := RunResult{Kind: kindName, Seed: seed, Conservation: "ok", Linearizable: true}
	fail := func(format string, args ...any) RunResult {
		out.Outcome = OutcomeDegraded
		out.Conservation = fmt.Sprintf(format, args...)
		return out
	}

	rec := &service.History{}
	svc, err := service.New(service.Config{
		Shards:     2,
		QueueDepth: 32,
		DefaultTTL: cfg.TTL,
		OnExpire:   rec.Expired,
	})
	if err != nil {
		return fail("service: %v", err)
	}
	backend := &recordingBackend{svc: svc, rec: rec}
	srv := service.NewServerWithOptions(backend, service.ServerOptions{
		IdleTimeout: 2 * time.Second,
		MaxWait:     250 * time.Millisecond,
		RetryAfter:  2 * time.Millisecond,
		Window:      cfg.Window,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return fail("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	// One proxy and one Redial client per campaign client: dial
	// order = connection order = deterministic stream seeding.
	maxInj := uint64(4)
	if len(kinds) == 1 && (kinds[0] == Stall || kinds[0] == Partition) {
		maxInj = 2 // these cost a full op-timeout (or refused dials) each
	}
	proxies := make([]*Proxy, cfg.Clients)
	clients := make([]*service.Client, cfg.Clients)
	for i := range proxies {
		p, err := New(ln.Addr().String(), Plan{
			Seed:          seed ^ (uint64(i)+0x51)*0x9e3779b97f4a7c15,
			Kinds:         kinds,
			MaxInjections: maxInj,
		})
		if err != nil {
			svc.Close()
			srv.Close()
			return fail("proxy: %v", err)
		}
		proxies[i] = p
		clients[i] = service.Redial(p.Addr(), service.RetryPolicy{
			Initial:     time.Millisecond,
			Cap:         16 * time.Millisecond,
			MaxAttempts: 12,
			Seed:        seed*7919 + uint64(i),
		})
		clients[i].SetOpTimeout(350 * time.Millisecond)
		if cfg.Window >= 2 {
			// The client has not dialed yet, so this only records the
			// window for every connection it dials; it cannot fail.
			_ = clients[i].Pipeline(cfg.Window, 0)
		}
	}

	// The workload: closed-loop acquire/release pairs over shared
	// resources, every op riding the retry loop. With a pipelined
	// window, each client's ops are striped across `window` workers
	// sharing the one connection — same ops, same resources, genuinely
	// concurrent frames.
	workers := cfg.Window
	if workers < 1 {
		workers = 1
	}
	failureSet := make(map[string]bool)
	var failMu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(i, w int) {
				defer wg.Done()
				rc := clients[i]
				owner := fmt.Sprintf("c%d", i)
				for j := w; j < cfg.OpsPerClient; j += workers {
					res := fmt.Sprintf("r%d", (i+j)%cfg.Resources)
					lease, err := rc.Acquire(res, owner, service.AcquireOptions{
						TTL:     cfg.TTL,
						Wait:    true,
						MaxWait: 150 * time.Millisecond,
					})
					if err != nil {
						failMu.Lock()
						failureSet[failureClass(err)] = true
						failMu.Unlock()
						continue
					}
					if err := rc.ReleaseFenced(lease.Resource, lease.Token, lease.Fence); err != nil {
						failMu.Lock()
						failureSet[failureClass(err)] = true
						failMu.Unlock()
					}
				}
			}(i, w)
		}
	}
	wg.Wait()

	// Aggregate the retry-layer counters before teardown.
	var stats service.ClientStats
	for _, rc := range clients {
		st := rc.Stats()
		stats.Dials += st.Dials
		stats.Reconnects += st.Reconnects
		stats.Retries += st.Retries
		stats.ResumedOK += st.ResumedOK
		stats.ResumedLost += st.ResumedLost
		stats.GaveUp += st.GaveUp
		rc.Close()
	}
	var injections uint64
	for _, p := range proxies {
		injections += p.Stats().Total()
	}

	// Graceful drain, then the invariants.
	srv.Drain(cfg.DrainGrace)
	if err := svc.Snapshot().Conserved(); err != nil {
		out.Conservation = err.Error()
	}

	// Split per resource (see service.LeaseModel): each piece must fit
	// the checker's bound.
	perRes := make(map[string][]linearize.Op)
	for _, op := range rec.Ops() {
		res := op.Input.(service.LeaseOp).Res
		perRes[res] = append(perRes[res], op)
	}
	resNames := make([]string, 0, len(perRes))
	for res := range perRes {
		resNames = append(resNames, res)
	}
	sort.Strings(resNames)
	for _, res := range resNames {
		if ok, _ := linearize.Check(service.LeaseModel{}, perRes[res]); !ok {
			out.Linearizable = false
			failureSet["linearize:"+res] = true
		}
	}

	svc.Close()
	srv.Close()
	<-serveDone
	for _, p := range proxies {
		p.Close()
	}

	for f := range failureSet {
		out.Failures = append(out.Failures, f)
	}
	sort.Strings(out.Failures)

	// Classification hierarchy: worst signal wins. Booleans only — raw
	// counts vary with timing, booleans do not (see package comment).
	switch {
	case stats.GaveUp > 0:
		out.Outcome = OutcomeDegraded
	case stats.Reconnects > 0 || stats.ResumedLost > 0:
		out.Outcome = OutcomeRecovered
	case stats.Retries > 0 || injections > 0:
		out.Outcome = OutcomeAbsorbed
	default:
		out.Outcome = OutcomeClean
	}
	return out
}
