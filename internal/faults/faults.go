// Package faults is the deterministic fault-injection subsystem: a
// seeded, per-machine plan of typed protocol faults that the coherence
// fabric consults at its existing decision points. It replaces the old
// package-global mutation switches in internal/coherence with
// per-machine state, so faulted and clean machines can run in parallel.
//
// A Plan is pure data (JSON-stable, so the Spec that carries it, and the
// fault-campaign report that echoes that Spec, are byte-identical from
// run to run); an Injector is the runtime state derived from it — a
// seeded PRNG consumed in simulator event order plus the injection log.
// The simulated machine is single-threaded inside its event engine, so
// the same plan over the same workload fires the same faults at the
// same cycles, run after run, regardless of harness parallelism.
package faults

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// Kind is one typed protocol fault.
type Kind uint8

const (
	// FlushDropped loses one release-time flush of a delayed response:
	// the forwarding event vanishes, but the armed delay time-out
	// survives and must eventually force the line out.
	FlushDropped Kind = iota
	// StuckDelay wedges a started delayed response permanently: the
	// flush and the time-out timer are both suppressed for that line, so
	// a queued LPRFO waiter behind the delaying holder is never granted.
	// Recovery requires the starvation watchdog (graceful degradation)
	// or ends in a typed starvation/deadlock diagnosis.
	StuckDelay
	// TearOffOwnership sends a tear-off copy as an ownership transfer
	// (DataExclusive) while the supplier keeps its Modified line — two
	// writable copies of one line. The SWMR monitor must flag it.
	TearOffOwnership
	// GrantReorder forwards a flushed delay to the second queued
	// ownership-wanting duty instead of the first, violating the paper's
	// bus-order hand-off. The hand-off-order monitor must flag it.
	GrantReorder
	// PredictorCorrupt flips the lock predictor's verdict for the PC of
	// a completing SC: a confident lock entry is cleared, an unconfident
	// one jumps to full confidence. Performance-only: the run must still
	// complete with correct final state.
	PredictorCorrupt
	// BusLatency stretches the delivery latency of matching data-network
	// messages by ExtraLatency cycles. Performance-only.
	BusLatency

	numKinds
)

var kindNames = [...]string{
	"flush-dropped", "stuck-delay", "tearoff-ownership",
	"grant-reorder", "predictor-corrupt", "bus-latency",
}

// String returns the kind's stable CLI/JSON name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind by name, so plans hash stably even if the
// enum is ever reordered.
func (k Kind) MarshalJSON() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("faults: cannot marshal unknown kind %d", uint8(k))
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes a kind name.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	parsed, err := ParseKind(s)
	if err != nil {
		return err
	}
	*k = parsed
	return nil
}

// ParseKind resolves a kind name.
func ParseKind(s string) (Kind, error) {
	for i, n := range kindNames {
		if s == n {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q (have %s)", s, strings.Join(kindNames[:], ", "))
}

// Kinds returns every fault kind, in enum order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Plan is a deterministic fault campaign for one machine: which fault
// kinds are armed, the PRNG seed, and the knobs shared by all of them.
// A Plan is pure data — it JSON-marshals stably, so a campaign report
// records it byte for byte; the zero value of every optional field
// selects the documented default.
type Plan struct {
	// Seed drives the injection PRNG. Two runs of the same workload with
	// the same seed inject identically.
	Seed uint64 `json:"seed"`
	// Kinds lists the armed fault kinds. Empty arms nothing (useful as a
	// fault-instrumented but clean reference run).
	Kinds []Kind `json:"kinds"`
	// Rate is the per-opportunity injection probability in (0, 1];
	// 0 means 1 (inject at every opportunity).
	Rate float64 `json:"rate,omitempty"`
	// MaxInjections caps the total injections across all kinds
	// (0 = unlimited).
	MaxInjections uint64 `json:"max_injections,omitempty"`
	// ExtraLatency is the BusLatency stretch in cycles (0 = 400).
	ExtraLatency uint64 `json:"extra_latency,omitempty"`
	// Classes restricts BusLatency to the named data-message classes
	// (mem.DataKind names); empty matches every class.
	Classes []string `json:"classes,omitempty"`
	// Degrade arms graceful degradation: when the check monitors detect
	// an injected starvation, the machine falls back to plain-RFO
	// semantics and the run completes instead of failing.
	Degrade bool `json:"degrade,omitempty"`
	// StarvationBound overrides the monitor watchdog's bound, in cycles
	// (0 keeps the monitor's derived default). Campaigns tighten it so
	// degradation engages quickly.
	StarvationBound uint64 `json:"starvation_bound,omitempty"`
}

// Validate rejects malformed plans.
func (p *Plan) Validate() error {
	if p == nil {
		return nil
	}
	if p.Rate < 0 || p.Rate > 1 {
		return fmt.Errorf("faults: rate %v outside [0, 1]", p.Rate)
	}
	for _, k := range p.Kinds {
		if int(k) >= int(numKinds) {
			return fmt.Errorf("faults: unknown kind %d in plan", uint8(k))
		}
	}
	return nil
}

// rate returns the effective per-opportunity probability.
func (p *Plan) rate() float64 {
	if p.Rate == 0 {
		return 1
	}
	return p.Rate
}

// ParseKinds resolves a comma-separated kind list; "all" (or "*") selects
// every kind.
func ParseKinds(s string) ([]Kind, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	if s == "all" || s == "*" {
		return Kinds(), nil
	}
	var out []Kind
	for _, part := range strings.Split(s, ",") {
		k, err := ParseKind(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// Injection is one log entry: an injected fault and the cycle it fired.
type Injection struct {
	Kind Kind   `json:"kind"`
	At   uint64 `json:"cycle"`
}

// Injector is a Plan's runtime state: the seeded PRNG, the armed-kind
// set, and the injection log. One Injector serves one machine and is
// consumed in the machine's deterministic event order; it is not safe
// for concurrent use (the event engine is single-threaded).
type Injector struct {
	plan    Plan
	rng     Stream
	enabled [numKinds]bool
	log     []Injection
}

// NewInjector derives the runtime state from a plan; a nil plan returns
// a nil injector (every method is nil-safe and inert).
func NewInjector(p *Plan) (*Injector, error) {
	if p == nil {
		return nil, nil
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	in := &Injector{plan: *p, rng: NewStream(p.Seed)}
	for _, k := range p.Kinds {
		in.enabled[k] = true
	}
	return in, nil
}

// seedMix spreads the user seed over the full state space (splitmix64
// finalizer) and keeps the xorshift state nonzero.
func seedMix(seed uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return z
}

// Stream is the injection PRNG — seedMix (splitmix64 finalizer) into
// xorshift64* — exported so other deterministic chaos harnesses (the
// service fault campaigns) draw from the exact generator the simulator
// campaigns use. The zero value is invalid; use NewStream.
type Stream struct {
	state uint64
}

// NewStream seeds a stream; equal seeds yield equal draw sequences.
func NewStream(seed uint64) Stream {
	return Stream{state: seedMix(seed)}
}

// Next advances the xorshift64* PRNG.
func (s *Stream) Next() uint64 {
	x := s.state
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a draw in [0, n); n must be positive.
func (s *Stream) Intn(n int64) int64 {
	return int64(s.Next() % uint64(n))
}

// Chance rolls an event with probability p (clamped to [0, 1]).
func (s *Stream) Chance(p float64) bool {
	if p >= 1 {
		return true
	}
	if p <= 0 {
		return false
	}
	// Top 53 bits → uniform float in [0, 1).
	return float64(s.Next()>>11)/(1<<53) < p
}

// Enabled reports whether the plan arms kind (without consuming PRNG
// state or counting an opportunity).
func (in *Injector) Enabled(k Kind) bool {
	return in != nil && in.enabled[k]
}

// Fire rolls one injection opportunity for kind at the given cycle:
// it returns true — and logs the injection — when the fault strikes.
// The PRNG is consumed only for armed kinds, so arming an unrelated
// kind never perturbs another kind's injection schedule... within one
// plan; opportunities of all armed kinds share one stream in event
// order, which is exactly what makes a run reproducible.
func (in *Injector) Fire(k Kind, cycle uint64) bool {
	if !in.Enabled(k) {
		return false
	}
	if in.plan.MaxInjections > 0 && uint64(len(in.log)) >= in.plan.MaxInjections {
		return false
	}
	if r := in.plan.rate(); r < 1 {
		if !in.rng.Chance(r) {
			return false
		}
	}
	in.log = append(in.log, Injection{Kind: k, At: cycle})
	return true
}

// Injections returns the injection log in firing order.
func (in *Injector) Injections() []Injection {
	if in == nil {
		return nil
	}
	return in.log
}

// Total reports how many faults have been injected.
func (in *Injector) Total() uint64 {
	if in == nil {
		return 0
	}
	return uint64(len(in.log))
}

// Counts aggregates the injection log by kind name (nil when nothing
// fired), for result records and failure manifests.
func (in *Injector) Counts() map[string]uint64 {
	if in == nil || len(in.log) == 0 {
		return nil
	}
	out := make(map[string]uint64)
	for _, e := range in.log {
		out[e.Kind.String()]++
	}
	return out
}

// CountsString renders Counts as a stable "kind=n kind=n" line.
func (in *Injector) CountsString() string {
	counts := in.Counts()
	if len(counts) == 0 {
		return "none"
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	return strings.Join(parts, " ")
}

// ExtraLatency returns the BusLatency stretch (default 400 cycles).
func (in *Injector) ExtraLatency() uint64 {
	if in == nil || in.plan.ExtraLatency == 0 {
		return 400
	}
	return in.plan.ExtraLatency
}

// WantsClass reports whether BusLatency targets the named data-message
// class (an empty Classes list targets every class).
func (in *Injector) WantsClass(class string) bool {
	if in == nil {
		return false
	}
	if len(in.plan.Classes) == 0 {
		return true
	}
	for _, c := range in.plan.Classes {
		if c == class {
			return true
		}
	}
	return false
}

// Plan returns a copy of the plan the injector was built from.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}
