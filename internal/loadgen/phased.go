package loadgen

import (
	"fmt"
	"io"
	"sync"
	"time"

	"iqolb/internal/adaptive"
	"iqolb/internal/faults"
	"iqolb/internal/report"
	"iqolb/internal/service"
	"iqolb/internal/stats"
	"iqolb/locks"
)

// This file is the phase-shifting workload: one run whose offered
// contention moves low → high → low, the regime change the adaptive
// controller exists for. A static policy is tuned for one regime and
// pays in the other; the controller must match the best static policy
// in *each* phase by migrating between them mid-run. BENCH_adaptive.json
// is the committed comparison.

// Mode names the serving discipline of a phased run.
const (
	ModeHandoff   = "handoff"   // static PolicyHandoff
	ModeBroadcast = "broadcast" // static PolicyBroadcast
	ModeAdaptive  = "adaptive"  // controller-driven migration
)

// PhasedModes is the canonical comparison set.
var PhasedModes = []string{ModeHandoff, ModeBroadcast, ModeAdaptive}

// Phase is one contention regime within a phased run. All clients run
// every phase; phase boundaries are barriers (no client enters phase
// k+1 until every client finished phase k).
type Phase struct {
	Name string `json:"name"`
	// Resources is how many distinct resources the clients spread over:
	// 1 concentrates everyone on a single hot resource (high
	// contention); larger values dilute it.
	Resources int `json:"resources"`
	// Think is the idle think time in nanoseconds between critical
	// sections — the other contention dial. Unlike the flat runner's
	// spin-work think (which models compute and competes with the
	// server for cores), phased think sleeps: it models remote clients
	// whose think time costs this machine nothing.
	Think int64 `json:"think_ns"`
	// OpsPerClient is each client's closed-loop op count this phase.
	OpsPerClient int `json:"ops_per_client"`
}

// DefaultPhases is the canonical low → high → low shift.
//
// The low phases spread the clients across enough resources (with a
// long think) that queues stay empty: grants are immediate and the two
// grant policies are indistinguishable. The high phase concentrates the
// same clients on a few resources with a short think, building steady
// per-shard queues — the regime where the broadcast herd pays O(waiters)
// wake-ups per release and its p99 blows up, while direct hand-off
// stays O(1). The high phase deliberately stops short of a pure
// closed-loop hammer on one resource: with zero think the releasing
// client barges straight back in and broadcast degenerates into a
// winner chain whose count-weighted p99 looks excellent while the
// starvation tail that Little's law requires hides above the 99th
// percentile. The high phase's think is on the order of one network
// round trip, so the releaser cannot instantly re-claim.
func DefaultPhases() []Phase {
	return []Phase{
		{Name: "low", Resources: 64, Think: 5_000_000, OpsPerClient: 400},
		{Name: "high", Resources: 16, Think: 30_000, OpsPerClient: 1500},
		{Name: "cooldown", Resources: 64, Think: 5_000_000, OpsPerClient: 400},
	}
}

// PhasedConfig describes one phased run. The server is always
// in-process: the phased harness owns the service so it can read
// per-phase counter deltas and controller state.
type PhasedConfig struct {
	Mode    string  `json:"mode"`
	Clients int     `json:"clients"`
	Phases  []Phase `json:"phases"`
	// Server shape, as in Config.
	Shards     int           `json:"shards,omitempty"`
	Lock       locks.Kind    `json:"lock,omitempty"`
	QueueDepth int           `json:"queue_depth,omitempty"`
	Seed       uint64        `json:"seed,omitempty"`
	TTL        time.Duration `json:"ttl,omitempty"`
	MaxWait    time.Duration `json:"max_wait,omitempty"`
	// AdaptiveInterval tunes the controller sampling period in
	// ModeAdaptive (0 = service default).
	AdaptiveInterval time.Duration `json:"adaptive_interval,omitempty"`
}

// PhaseResult is one phase's client-observed measurements plus the
// server-side counter movement attributable to the phase.
type PhaseResult struct {
	Phase      Phase           `json:"phase"`
	Grants     uint64          `json:"grants"`
	Sheds      uint64          `json:"sheds"`
	Timeouts   uint64          `json:"timeouts"`
	Errors     uint64          `json:"errors"`
	WallNS     int64           `json:"wall_ns"`
	Throughput float64         `json:"throughput_grants_per_sec"`
	GrantP50   float64         `json:"grant_p50_ns"`
	GrantP99   float64         `json:"grant_p99_ns"`
	GrantP999  float64         `json:"grant_p999_ns"`
	GrantWait  stats.Histogram `json:"grant_wait_ns"`
	// Migrations/Degrades are the server counter deltas across this
	// phase — how much discipline change the phase provoked.
	Migrations uint64 `json:"migrations"`
	Degrades   uint64 `json:"degrades"`
	// ShardPolicies is each shard's live policy at phase end
	// ("degraded" when degraded).
	ShardPolicies []string `json:"shard_policies"`
}

// PhasedResult is one mode's full run across the phase schedule.
type PhasedResult struct {
	Stamp
	Mode       string        `json:"mode"`
	Clients    int           `json:"clients"`
	Shards     int           `json:"shards"`
	QueueDepth int           `json:"queue_depth"`
	Lock       string        `json:"lock,omitempty"`
	Seed       uint64        `json:"seed,omitempty"`
	Phases     []PhaseResult `json:"phases"`
	// Controller is the controller's final state (ModeAdaptive only).
	Controller *adaptive.State `json:"controller,omitempty"`
}

// PhasedFile is the on-disk artifact (BENCH_adaptive.json).
type PhasedFile struct {
	Header
	Runs []PhasedResult `json:"runs"`
}

// NewPhasedFile wraps phased runs in a schema-versioned container.
func NewPhasedFile(runs []PhasedResult) *PhasedFile { return &PhasedFile{newHeader(), runs} }

// WriteJSON writes the container as indented JSON.
func (f *PhasedFile) WriteJSON(w io.Writer) error { return report.WriteJSON(w, f) }

// LoadPhasedFile reads and strictly version-checks a phased artifact.
func LoadPhasedFile(path string) (*PhasedFile, error) {
	var f PhasedFile
	return load(path, &f, &f.Header, &f.Runs)
}

// serviceConfig maps a phased mode onto a service.Config.
func (c PhasedConfig) serviceConfig() (service.Config, error) {
	sc := baseConfig(c.Shards, c.QueueDepth, c.Lock)
	switch c.Mode {
	case ModeHandoff:
		sc.Policy = service.PolicyHandoff
	case ModeBroadcast:
		sc.Policy = service.PolicyBroadcast
	case ModeAdaptive:
		// The controller owns the discipline; broadcast is the natural
		// uncontended start it would pick anyway.
		sc.Policy = service.PolicyBroadcast
		sc.Adaptive = true
		sc.AdaptiveInterval = c.AdaptiveInterval
	default:
		return sc, fmt.Errorf("loadgen: unknown mode %q (have handoff, broadcast, adaptive)", c.Mode)
	}
	return sc, nil
}

// RunPhases executes one phased run: every client walks the phase
// schedule in lockstep (barrier per boundary) against a fresh
// in-process server, and each phase's stats are captured separately.
func RunPhases(cfg PhasedConfig) (PhasedResult, error) {
	if cfg.Clients < 1 {
		return PhasedResult{}, fmt.Errorf("loadgen: clients = %d", cfg.Clients)
	}
	if len(cfg.Phases) == 0 {
		cfg.Phases = DefaultPhases()
	}
	for i, ph := range cfg.Phases {
		if ph.Resources < 1 || ph.OpsPerClient < 1 {
			return PhasedResult{}, fmt.Errorf("loadgen: phase %d (%q): resources and ops_per_client must be >= 1", i, ph.Name)
		}
	}
	opt := service.AcquireOptions{TTL: cfg.TTL, Wait: true, MaxWait: cfg.MaxWait}
	if opt.MaxWait == 0 {
		opt.MaxWait = 10 * time.Second
	}
	sc, err := cfg.serviceConfig()
	if err != nil {
		return PhasedResult{}, err
	}
	r, err := boot("", sc, service.ServerOptions{}, cfg.Clients)
	if err != nil {
		return PhasedResult{}, err
	}
	defer r.close()
	svc, clients := r.svc, r.clients

	out := PhasedResult{
		Stamp:      Stamp{SchemaVersion},
		Mode:       cfg.Mode,
		Clients:    cfg.Clients,
		Shards:     sc.Shards,
		QueueDepth: sc.QueueDepth,
		Lock:       string(sc.Lock),
		Seed:       cfg.Seed,
	}

	// Discarded warmup against the first phase's distribution: the
	// connection burst of N fresh clients spikes every queue at once,
	// and measuring through it charges that transient (and the
	// controller's reaction to it) to the first phase. Stats and
	// counter deltas start after it.
	{
		warm := cfg.Phases[0]
		warm.OpsPerClient = 30
		var wg sync.WaitGroup
		wg.Add(len(clients))
		scratch := make([]clientShard, len(clients))
		for g := range clients {
			go runPhaseClient(&wg, clients[g], &scratch[g], cfg.Seed, len(cfg.Phases), warm, g, opt)
		}
		wg.Wait()
		for g := range scratch {
			if err := scratch[g].lastErr; err != nil {
				return PhasedResult{}, fmt.Errorf("loadgen: warmup client error: %w", err)
			}
		}
	}

	prev := svc.Snapshot()
	for pi, ph := range cfg.Phases {
		shards := make([]clientShard, cfg.Clients)
		var wg sync.WaitGroup
		t0 := time.Now()
		for g := 0; g < cfg.Clients; g++ {
			wg.Add(1)
			go runPhaseClient(&wg, clients[g], &shards[g], cfg.Seed, pi, ph, g, opt)
		}
		wg.Wait() // the barrier: nobody enters phase pi+1 early
		wall := time.Since(t0)

		var total clientShard
		for g := range shards {
			total.merge(&shards[g])
		}
		if total.lastErr != nil {
			return PhasedResult{}, fmt.Errorf("loadgen: phase %q client error (%d total): %w", ph.Name, total.errs, total.lastErr)
		}
		pr := PhaseResult{
			Phase:      ph,
			Grants:     total.grants,
			Sheds:      total.sheds,
			Timeouts:   total.timeouts,
			Errors:     total.errs,
			WallNS:     wall.Nanoseconds(),
			Throughput: float64(total.grants) / wall.Seconds(),
			GrantP50:   total.grantWait.Percentile(50),
			GrantP99:   total.grantWait.Percentile(99),
			GrantP999:  total.grantWait.Percentile(99.9),
			GrantWait:  total.grantWait,
		}
		snap := svc.Snapshot()
		pr.Migrations = snap.Totals.Migrations - prev.Totals.Migrations
		pr.Degrades = snap.Totals.Degrades - prev.Totals.Degrades
		for _, ss := range snap.Shards {
			p := ss.Policy
			if ss.Degraded {
				p = "degraded"
			}
			pr.ShardPolicies = append(pr.ShardPolicies, p)
		}
		prev = snap
		out.Phases = append(out.Phases, pr)
	}
	out.Controller = svc.ControllerState()
	return out, nil
}

// runPhaseClient is one client's closed loop for one phase.
func runPhaseClient(wg *sync.WaitGroup, cl *service.Client, sh *clientShard, seed uint64, pi int, ph Phase, g int, opt service.AcquireOptions) {
	defer wg.Done()
	owner := fmt.Sprintf("client-%d", g)
	// Same PRNG family and per-actor splitting as the flat runner, with
	// the phase index folded in so phases draw independent sequences.
	str := faults.NewStream(seed + (uint64(pi)*256+uint64(g))*0x9e3779b97f4a7c15 + 1)
	for op := 0; op < ph.OpsPerClient; op++ {
		if ph.Think > 0 {
			// Uniform jitter in [Think/2, 3·Think/2): without it the
			// runtime coalesces the sleeps and all clients wake in
			// lockstep bursts, turning an idle phase into a periodic
			// thundering herd.
			time.Sleep(time.Duration(ph.Think/2 + str.Intn(ph.Think)))
		}
		sh.criticalSection(cl, fmt.Sprintf("res-%d", str.Intn(int64(ph.Resources))), owner, opt, 0)
	}
}

// RenderPhased formats phased runs as the CLI's human-readable table:
// one row per mode × phase, so the per-phase comparison the controller
// is judged on reads straight down the columns.
func RenderPhased(runs []PhasedResult) string {
	t := report.NewTable("Phase-shifting load (client-observed grant latency, ns)",
		"mode", "phase", "resources", "grants", "grants/s", "p50", "p99", "sheds", "migrations")
	for _, r := range runs {
		for _, pr := range r.Phases {
			t.Row(r.Mode, pr.Phase.Name, pr.Phase.Resources, pr.Grants,
				fmt.Sprintf("%.0f", pr.Throughput),
				fmt.Sprintf("%.0f", pr.GrantP50), fmt.Sprintf("%.0f", pr.GrantP99),
				pr.Sheds, pr.Migrations)
		}
	}
	t.Note("adaptive must match or beat the best static policy's p99 in every phase (BENCH_adaptive.json golden test)")
	return t.String()
}
