package adaptive

import (
	"sync"
	"testing"
	"time"

	"iqolb/locks"
)

// fakePlant is a scriptable plant: tests mutate the per-shard samples
// between ticks and inspect the SetPolicy calls the controller made.
type fakePlant struct {
	mu     sync.Mutex
	shards []Sample
	sets   []struct {
		shard int
		pol   Policy
	}
}

func newFakePlant(n int) *fakePlant {
	p := &fakePlant{shards: make([]Sample, n)}
	for i := range p.shards {
		p.shards[i].Policy = PolicyBroadcast
	}
	return p
}

func (p *fakePlant) NumShards() int { p.mu.Lock(); defer p.mu.Unlock(); return len(p.shards) }

func (p *fakePlant) SampleShard(i int) Sample {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.shards[i]
}

func (p *fakePlant) SetPolicy(i int, pol Policy) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shards[i].Policy = pol
	p.sets = append(p.sets, struct {
		shard int
		pol   Policy
	}{i, pol})
	return nil
}

func (p *fakePlant) load(i int, acq, sheds uint64, queued int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shards[i].Acquires += acq
	p.shards[i].Grants += acq - sheds
	p.shards[i].QueueFullSheds += sheds
	p.shards[i].Queued = queued
}

func (p *fakePlant) policy(i int) Policy {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.shards[i].Policy
}

func (p *fakePlant) setCount() int { p.mu.Lock(); defer p.mu.Unlock(); return len(p.sets) }

const dt = 100 * time.Millisecond

func TestMigratesOnQueueDepth(t *testing.T) {
	p := newFakePlant(2)
	c := New(p, Config{DwellTicks: 2})

	// Sustained queue on shard 0 only; shard 1 stays idle.
	for i := 0; i < 8; i++ {
		p.load(0, 100, 0, 6)
		p.load(1, 5, 0, 0)
		c.Tick(dt)
	}
	if got := p.policy(0); got != PolicyHandoff {
		t.Fatalf("hot shard policy = %q, want handoff", got)
	}
	if got := p.policy(1); got != PolicyBroadcast {
		t.Fatalf("idle shard policy = %q, want broadcast (untouched)", got)
	}

	// Load drains: the queue estimate must fall through LowQueue before
	// the controller goes back to broadcast.
	for i := 0; i < 12; i++ {
		p.load(0, 10, 0, 0)
		c.Tick(dt)
	}
	if got := p.policy(0); got != PolicyBroadcast {
		t.Fatalf("drained shard policy = %q, want broadcast", got)
	}
}

func TestHysteresisHoldsBetweenWatermarks(t *testing.T) {
	p := newFakePlant(1)
	c := New(p, Config{DwellTicks: 1, HighQueue: 4, LowQueue: 1})

	// Queue depth parked between the watermarks: no migration, ever.
	for i := 0; i < 20; i++ {
		p.load(0, 50, 0, 2)
		c.Tick(dt)
	}
	if n := p.setCount(); n != 0 {
		t.Fatalf("controller actuated %d times inside the hysteresis band", n)
	}
}

func TestDwellBoundsThrash(t *testing.T) {
	p := newFakePlant(1)
	c := New(p, Config{DwellTicks: 4})

	// Adversarial oscillation across both watermarks every tick.
	for i := 0; i < 40; i++ {
		q := 0
		if i%2 == 0 {
			q = 8
		}
		p.load(0, 50, 0, q)
		c.Tick(dt)
	}
	// At most one actuation per dwell window.
	if n := p.setCount(); n > 40/4 {
		t.Fatalf("dwell failed to bound actuations: %d flips in 40 ticks", n)
	}
}

func TestDegradeAndRestore(t *testing.T) {
	p := newFakePlant(1)
	c := New(p, Config{DwellTicks: 2})

	// Queue overflow dominates admissions: most attempts shed.
	for i := 0; i < 8; i++ {
		p.load(0, 100, 90, 8)
		c.Tick(dt)
	}
	if got := p.policy(0); got != PolicyDegraded {
		t.Fatalf("drowning shard policy = %q, want degraded", got)
	}

	// Offered load collapses well below the rate that drowned us.
	for i := 0; i < 12; i++ {
		p.load(0, 2, 0, 0)
		c.Tick(dt)
	}
	if got := p.policy(0); got != PolicyBroadcast {
		t.Fatalf("recovered shard policy = %q, want broadcast restore", got)
	}
}

func TestDegradeDisabled(t *testing.T) {
	p := newFakePlant(1)
	c := New(p, Config{DwellTicks: 1, NoDegrade: true})

	for i := 0; i < 10; i++ {
		p.load(0, 100, 95, 8)
		c.Tick(dt)
	}
	if got := p.policy(0); got == PolicyDegraded {
		t.Fatalf("controller degraded with AllowDegrade=false")
	}
}

func TestRespectsExternalPolicyChanges(t *testing.T) {
	p := newFakePlant(1)
	c := New(p, Config{DwellTicks: 2})

	// A watchdog degrades the shard behind the controller's back while
	// traffic is heavy; the controller must treat the plant's reported
	// policy as truth and hold degraded until load backs off — not
	// immediately "fix" the policy back.
	for i := 0; i < 4; i++ {
		p.load(0, 100, 0, 6)
		c.Tick(dt)
	}
	p.mu.Lock()
	p.shards[0].Policy = PolicyDegraded
	p.mu.Unlock()
	for i := 0; i < 3; i++ {
		p.load(0, 100, 0, 0)
		c.Tick(dt)
	}
	if got := p.policy(0); got != PolicyDegraded {
		t.Fatalf("controller overrode external degrade: policy = %q", got)
	}
}

func TestControllerState(t *testing.T) {
	p := newFakePlant(2)
	tun := locks.NewTuning()
	c := New(p, Config{DwellTicks: 2, Tuning: tun})
	for i := 0; i < 6; i++ {
		p.load(0, 100, 0, 6)
		c.Tick(dt)
	}
	st := c.State()
	if st.Ticks != 6 {
		t.Fatalf("Ticks = %d, want 6", st.Ticks)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("len(Shards) = %d, want 2", len(st.Shards))
	}
	if st.Shards[0].QueueEWMA <= st.Shards[1].QueueEWMA {
		t.Fatalf("hot shard EWMA %v not above idle %v",
			st.Shards[0].QueueEWMA, st.Shards[1].QueueEWMA)
	}
	if st.Migrations == 0 || st.Shards[0].Migrations == 0 {
		t.Fatalf("migrations not counted: %+v", st)
	}
	if st.Tuning == nil || st.TuningBand == "" {
		t.Fatalf("tuning state missing: %+v", st)
	}
}

func TestBandTunerActuatesLocks(t *testing.T) {
	tun := locks.NewTuning()
	p := newFakePlant(1)
	c := New(p, Config{DwellTicks: 1, Tuning: tun})

	// Heavy sustained queue: tuner must move to the high band — longer
	// inserted delays, near-zero optimistic spinning.
	for i := 0; i < 10; i++ {
		p.load(0, 200, 0, 10)
		c.Tick(dt)
	}
	v := tun.Values()
	want := valuesFor(BandHigh)
	if v != want {
		t.Fatalf("high-contention tuning = %+v, want %+v", v, want)
	}

	// Contention vanishes: back down (through mid) to the low band.
	for i := 0; i < 10; i++ {
		p.load(0, 5, 0, 0)
		c.Tick(dt)
	}
	if v := tun.Values(); v != valuesFor(BandLow) {
		t.Fatalf("idle tuning = %+v, want low band %+v", v, valuesFor(BandLow))
	}
}
