// Command lockload replays workload signatures over N real TCP client
// connections against a lock-lease server and writes a schema-versioned
// JSON artifact (BENCH_service.json by convention): throughput, p50/p99/
// p99.9 client-observed grant latency, Jain fairness, and shed/degrade
// counters.
//
//	lockload                                   # hotlock, 8 clients, handoff vs broadcast
//	lockload -bench hotlock -clients 4,8,16 -policy both
//	lockload -addr 127.0.0.1:7007 -clients 8   # against an external lockserve
//	lockload -phases                           # low→high→low shift: static policies vs adaptive
//
// With -policy both (the default) each configuration runs under both
// grant policies — the direct releaser→waiter hand-off and the
// broadcast-wakeup baseline — which is the serving-layer rendition of
// the paper's queue-based-locking vs test&set comparison.
//
// With -phases the run is the phase-shifting workload instead: offered
// contention moves low → high → low in one run, and each mode in
// -policy ("all" = handoff, broadcast, adaptive) serves the same
// schedule. The adaptive mode runs the contention controller, which
// must match the best static policy in every phase by live-migrating
// the hot shards. The artifact defaults to BENCH_adaptive.json.
//
// With -chaos the run is the network-fault campaign instead: every
// fault kind in -chaos-kinds crossed with every seed in -chaos-seeds,
// each run squeezing real resilient clients through a deterministic
// fault-injecting proxy (internal/chaos) and asserting lease
// conservation plus server-boundary linearizability. The artifact
// defaults to BENCH_chaos.json and is byte-identical across runs of the
// same seeds. Any invariant violation exits 1.
//
// Exit codes follow the repo convention (see README): 0 success, 1 run
// failure, 2 unusable configuration.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	chaoslib "iqolb/internal/chaos"
	"iqolb/internal/cliconfig"
	"iqolb/internal/loadgen"
	"iqolb/locks"
)

func main() {
	var (
		bench      = flag.String("bench", "hotlock", "workload signature name (flat runs)")
		clientList = flag.String("clients", "8", "comma-separated client counts to sweep")
		policyFlag = flag.String("policy", "both", `grant policy: "handoff", "broadcast", or "both"; with -phases also "adaptive" or "all"`)
		lockKind   = flag.String("lock", "mcs", "shard guard primitive (in-process server only)")
		shards     = flag.Int("shards", 8, "server shard count (in-process server only)")
		queue      = flag.Int("queue", 64, "admission queue depth per shard (in-process server only)")
		scale      = flag.Int("scale", 1, "divide the signature's critical-section total (flat) or each phase's op count (-phases)")
		seed       = flag.Uint64("seed", 1, "per-client PRNG seed (operation sequence, not timing)")
		ttl        = flag.Duration("ttl", 0, "per-acquire lease TTL (0 = server default)")
		maxWait    = flag.Duration("max-wait", 10*time.Second, "bound on each queued wait")
		addr       = flag.String("addr", "", "external lockserve address (empty = in-process server per run)")
		phases     = flag.Bool("phases", false, "run the phase-shifting workload (low→high→low) instead of flat signature replay")
		ctrlEvery  = flag.Duration("adaptive-interval", 5*time.Millisecond, "controller sampling period for the adaptive mode (-phases)")
		chaos      = flag.Bool("chaos", false, "run the network-fault campaign instead of a benchmark")
		chaosKinds = flag.String("chaos-kinds", "all", `comma-separated fault kinds for -chaos ("all" = every kind; a "none" control row always runs)`)
		chaosSeeds = flag.String("chaos-seeds", "1,2,3,4,5,6,7,8", "comma-separated seeds for -chaos")
		chaosWin   = flag.Int("chaos-window", 1, "pipelining window for -chaos clients (1 = lock-step)")
		out        = flag.String("o", "", `artifact path (default BENCH_service.json, BENCH_adaptive.json with -phases, or BENCH_chaos.json with -chaos; "none" disables)`)
		jsonOut    = flag.Bool("json", false, "print the JSON artifact on stdout instead of the table")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: lockload [flags]")
		os.Exit(2)
	}
	outPath := *out
	if outPath == "" {
		switch {
		case *phases:
			outPath = "BENCH_adaptive.json"
		case *chaos:
			outPath = "BENCH_chaos.json"
		default:
			outPath = "BENCH_service.json"
		}
	} else if outPath == "none" {
		outPath = ""
	}

	if *chaos {
		runChaos(*chaosKinds, *chaosSeeds, *chaosWin, outPath, *jsonOut)
		return
	}

	if *phases {
		runPhased(*policyFlag, *clientList, *lockKind, *shards, *queue, *scale, *seed, *ttl, *maxWait, *ctrlEvery, outPath, *jsonOut)
		return
	}

	clients, err := cliconfig.PositiveInts(*clientList, "client count")
	usage(err)
	policies, err := cliconfig.Policies(*policyFlag, *addr)
	usage(err)
	kind, err := locks.ParseKind(*lockKind)
	usage(err)

	var results []loadgen.Result
	for _, n := range clients {
		for _, pol := range policies {
			res, err := loadgen.Run(loadgen.Config{
				Bench:      *bench,
				Clients:    n,
				Addr:       *addr,
				Shards:     *shards,
				Lock:       kind,
				Policy:     pol,
				QueueDepth: *queue,
				Scale:      *scale,
				Seed:       *seed,
				TTL:        *ttl,
				MaxWait:    *maxWait,
			})
			if err != nil {
				fail(err)
			}
			results = append(results, res)
		}
	}

	emit(outPath, *jsonOut, fmt.Sprintf("%d results", len(results)), loadgen.NewFile(results).WriteJSON,
		func() string { return loadgen.Render(results) })
}

// runChaos executes the network-fault campaign: (control + each kind)
// × each seed, with per-run conservation and linearizability checks.
// Invariant violations exit 1; a degraded classification alone does
// not (it is a legal, typed way for a run to end).
func runChaos(kindsFlag, seedsFlag string, window int, outPath string, jsonOut bool) {
	kinds, err := chaoslib.ParseKinds(kindsFlag)
	usage(err)
	seedInts, err := cliconfig.PositiveInts(seedsFlag, "chaos seed")
	usage(err)
	seeds := make([]uint64, len(seedInts))
	for i, s := range seedInts {
		seeds[i] = uint64(s)
	}

	rep := chaoslib.RunCampaign(chaoslib.CampaignConfig{
		Kinds:  kinds,
		Seeds:  seeds,
		Window: window,
		OnRun: func(r chaoslib.RunResult) {
			status := ""
			if r.Failed() {
				status = "  INVARIANT VIOLATION"
			}
			fmt.Fprintf(os.Stderr, "lockload: chaos %-13s seed %-3d %-10s%s\n", r.Kind, r.Seed, r.Outcome, status)
		},
	})

	emit(outPath, jsonOut, fmt.Sprintf("%d chaos runs", len(rep.Runs)), rep.WriteJSON, nil)
	if rep.Failures > 0 {
		fmt.Fprintf(os.Stderr, "lockload: chaos campaign FAILED: %d runs violated invariants\n", rep.Failures)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "lockload: chaos campaign clean: %d runs, outcomes %v\n", len(rep.Runs), rep.Outcomes)
}

// runPhased executes the phase-shifting comparison: every requested
// mode serves the identical low→high→low schedule.
func runPhased(policyFlag, clientList, lockKind string, shards, queue, scale int, seed uint64, ttl, maxWait, ctrlEvery time.Duration, outPath string, jsonOut bool) {
	var modes []string
	switch policyFlag {
	case "all", "both":
		modes = loadgen.PhasedModes
	case loadgen.ModeHandoff, loadgen.ModeBroadcast, loadgen.ModeAdaptive:
		modes = []string{policyFlag}
	default:
		usage(fmt.Errorf("unknown -policy %q for -phases (have handoff, broadcast, adaptive, all)", policyFlag))
	}
	clients, err := cliconfig.PositiveInts(clientList, "client count")
	usage(err)
	if len(clients) != 1 {
		usage(fmt.Errorf("-phases needs exactly one client count, got %v", clients))
	}
	kind, err := locks.ParseKind(lockKind)
	usage(err)
	schedule := loadgen.DefaultPhases()
	if scale > 1 {
		for i := range schedule {
			if schedule[i].OpsPerClient /= scale; schedule[i].OpsPerClient < 1 {
				schedule[i].OpsPerClient = 1
			}
		}
	}

	var runs []loadgen.PhasedResult
	for _, mode := range modes {
		r, err := loadgen.RunPhases(loadgen.PhasedConfig{
			Mode:             mode,
			Clients:          clients[0],
			Phases:           schedule,
			Shards:           shards,
			Lock:             kind,
			QueueDepth:       queue,
			Seed:             seed,
			TTL:              ttl,
			MaxWait:          maxWait,
			AdaptiveInterval: ctrlEvery,
		})
		if err != nil {
			fail(err)
		}
		runs = append(runs, r)
	}

	emit(outPath, jsonOut, fmt.Sprintf("%d phased runs", len(runs)), loadgen.NewPhasedFile(runs).WriteJSON,
		func() string { return loadgen.RenderPhased(runs) })
}

// emit is every mode's tail: write the artifact to outPath (empty =
// disabled), then print the same JSON (-json) or the mode's table (the
// chaos campaign has none) on stdout.
func emit(outPath string, jsonOut bool, what string, write func(io.Writer) error, table func() string) {
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			fail(err)
		}
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "lockload: wrote %s to %s\n", what, outPath)
	}
	switch {
	case jsonOut:
		if err := write(os.Stdout); err != nil {
			fail(err)
		}
	case table != nil:
		fmt.Print(table())
	}
}

func usage(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lockload:", err)
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "lockload:", err)
	os.Exit(cliconfig.ExitCode(err))
}
