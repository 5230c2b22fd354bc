package faults

import (
	"encoding/json"
	"testing"
)

// TestKindNamesRoundTrip: every kind parses back from its name and from
// its JSON encoding — the names are the stable identity used in plans,
// campaign reports and manifests.
func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
		data, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("marshal %v: %v", k, err)
		}
		var back Kind
		if err := json.Unmarshal(data, &back); err != nil || back != k {
			t.Errorf("JSON round trip of %v gave %v, %v", k, back, err)
		}
	}
	if _, err := ParseKind("no-such-fault"); err == nil {
		t.Error("ParseKind accepted an unknown name")
	}
}

func TestParseKinds(t *testing.T) {
	ks, err := ParseKinds("stuck-delay, bus-latency")
	if err != nil {
		t.Fatal(err)
	}
	if len(ks) != 2 || ks[0] != StuckDelay || ks[1] != BusLatency {
		t.Fatalf("ParseKinds = %v", ks)
	}
	all, err := ParseKinds("all")
	if err != nil || len(all) != len(Kinds()) {
		t.Fatalf("ParseKinds(all) = %v, %v", all, err)
	}
	if ks, err := ParseKinds(""); err != nil || ks != nil {
		t.Fatalf("ParseKinds(\"\") = %v, %v; want nil, nil", ks, err)
	}
	if _, err := ParseKinds("stuck-delay,bogus"); err == nil {
		t.Error("ParseKinds accepted an unknown name")
	}
}

// TestInjectorDeterminism: the same plan produces the same fire/skip
// sequence, and a different seed produces a different one.
func TestInjectorDeterminism(t *testing.T) {
	plan := &Plan{Seed: 7, Kinds: []Kind{BusLatency}, Rate: 0.5}
	roll := func(p *Plan) []bool {
		in, err := NewInjector(p)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]bool, 256)
		for i := range out {
			out[i] = in.Fire(BusLatency, uint64(i))
		}
		return out
	}
	a, b := roll(plan), roll(plan)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at opportunity %d", i)
		}
	}
	other := roll(&Plan{Seed: 8, Kinds: []Kind{BusLatency}, Rate: 0.5})
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical 256-roll sequences")
	}
	fired := 0
	for _, f := range a {
		if f {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Errorf("rate 0.5 fired %d/%d times; PRNG looks broken", fired, len(a))
	}
}

// TestInjectorDefaults: rate 0 means always, disabled kinds never fire
// and consume no PRNG state, MaxInjections caps the log.
func TestInjectorDefaults(t *testing.T) {
	in, err := NewInjector(&Plan{Seed: 1, Kinds: []Kind{StuckDelay}})
	if err != nil {
		t.Fatal(err)
	}
	if !in.Fire(StuckDelay, 10) {
		t.Error("rate 0 (default 1) did not fire")
	}
	if in.Fire(FlushDropped, 11) {
		t.Error("unarmed kind fired")
	}
	if in.Enabled(FlushDropped) || !in.Enabled(StuckDelay) {
		t.Error("Enabled does not reflect the plan")
	}
	if got := in.Injections(); len(got) != 1 || got[0] != (Injection{Kind: StuckDelay, At: 10}) {
		t.Errorf("injection log = %v", got)
	}

	capped, err := NewInjector(&Plan{Seed: 1, Kinds: []Kind{StuckDelay}, MaxInjections: 2})
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	for i := 0; i < 10; i++ {
		if capped.Fire(StuckDelay, uint64(i)) {
			fired++
		}
	}
	if fired != 2 || capped.Total() != 2 {
		t.Errorf("MaxInjections=2 fired %d times (total %d)", fired, capped.Total())
	}
}

// TestNilInjector: a nil injector (no plan) is inert everywhere.
func TestNilInjector(t *testing.T) {
	var in *Injector
	if got, err := NewInjector(nil); got != nil || err != nil {
		t.Fatalf("NewInjector(nil) = %v, %v", got, err)
	}
	if in.Enabled(StuckDelay) || in.Fire(StuckDelay, 0) {
		t.Error("nil injector fired")
	}
	if in.Injections() != nil || in.Counts() != nil || in.Total() != 0 {
		t.Error("nil injector reported injections")
	}
	if in.WantsClass("DataShared") {
		t.Error("nil injector wants a class")
	}
}

func TestPlanValidate(t *testing.T) {
	if err := (&Plan{Rate: 1.5}).Validate(); err == nil {
		t.Error("rate > 1 accepted")
	}
	if err := (&Plan{Kinds: []Kind{Kind(200)}}).Validate(); err == nil {
		t.Error("unknown kind accepted")
	}
	if err := (&Plan{Seed: 3, Kinds: Kinds(), Rate: 0.25}).Validate(); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestPlanJSONStable: the plan's JSON encoding is what enters the cache
// key; pin its shape.
func TestPlanJSONStable(t *testing.T) {
	p := Plan{Seed: 9, Kinds: []Kind{StuckDelay, BusLatency}, Rate: 0.5, Degrade: true}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"seed":9,"kinds":["stuck-delay","bus-latency"],"rate":0.5,"degrade":true}`
	if string(data) != want {
		t.Errorf("plan JSON = %s\nwant %s", data, want)
	}
	var back Plan
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Seed != 9 || len(back.Kinds) != 2 || back.Kinds[1] != BusLatency || !back.Degrade {
		t.Errorf("plan round trip = %+v", back)
	}
}

func TestCountsString(t *testing.T) {
	in, err := NewInjector(&Plan{Seed: 1, Kinds: []Kind{StuckDelay, FlushDropped}})
	if err != nil {
		t.Fatal(err)
	}
	if got := in.CountsString(); got != "none" {
		t.Errorf("empty CountsString = %q", got)
	}
	in.Fire(StuckDelay, 1)
	in.Fire(StuckDelay, 2)
	in.Fire(FlushDropped, 3)
	if got := in.CountsString(); got != "flush-dropped=1 stuck-delay=2" {
		t.Errorf("CountsString = %q", got)
	}
}

func TestStreamDeterminism(t *testing.T) {
	a, b := NewStream(42), NewStream(42)
	for i := 0; i < 64; i++ {
		if a.Next() != b.Next() {
			t.Fatal("equal seeds diverged")
		}
	}
	c := NewStream(43)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Next() == c.Next() {
			same++
		}
	}
	if same == 64 {
		t.Fatal("different seeds produced identical streams")
	}
	// Zero seed is valid (seedMix keeps the state nonzero).
	z := NewStream(0)
	if z.Next() == 0 && z.Next() == 0 {
		t.Fatal("zero seed produced a dead stream")
	}
}

func TestStreamIntnChance(t *testing.T) {
	s := NewStream(7)
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit %d/10 values", len(seen))
	}
	if !s.Chance(1) || s.Chance(0) {
		t.Fatal("Chance boundaries wrong")
	}
	hits := 0
	for i := 0; i < 10000; i++ {
		if s.Chance(0.3) {
			hits++
		}
	}
	if hits < 2500 || hits > 3500 {
		t.Fatalf("Chance(0.3) hit %d/10000", hits)
	}
}

// TestInjectorMatchesStream pins that the injector consumes exactly the
// exported Stream: rate rolls draw from NewStream(plan.Seed) in firing
// order, so external chaos harnesses can predict (and share) schedules.
func TestInjectorMatchesStream(t *testing.T) {
	plan := &Plan{Seed: 11, Kinds: []Kind{StuckDelay}, Rate: 0.5}
	in, err := NewInjector(plan)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewStream(11)
	for cycle := uint64(0); cycle < 256; cycle++ {
		want := ref.Chance(0.5)
		if got := in.Fire(StuckDelay, cycle); got != want {
			t.Fatalf("cycle %d: Fire = %v, reference stream says %v", cycle, got, want)
		}
	}
}
