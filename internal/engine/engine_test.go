package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestFIFOWithinSameCycle(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func(Time) { order = append(order, i) })
	}
	e.Run(0)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-cycle events fired out of order: %v", order)
		}
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %d, want 5", e.Now())
	}
}

func TestTimeOrdering(t *testing.T) {
	e := New()
	times := []Time{9, 3, 7, 1, 8, 2, 0, 6, 5, 4}
	var fired []Time
	for _, at := range times {
		e.At(at, func(now Time) { fired = append(fired, now) })
	}
	e.Run(0)
	if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
		t.Fatalf("events fired out of time order: %v", fired)
	}
	if len(fired) != len(times) {
		t.Fatalf("fired %d events, want %d", len(fired), len(times))
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	e := New()
	var secondAt Time
	e.At(10, func(Time) {
		e.After(5, func(now Time) { secondAt = now })
	})
	e.Run(0)
	if secondAt != 15 {
		t.Fatalf("After(5) from cycle 10 fired at %d, want 15", secondAt)
	}
}

func TestSchedulingIntoPastPanics(t *testing.T) {
	e := New()
	e.At(10, func(Time) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling into the past did not panic")
			}
		}()
		e.At(3, func(Time) {})
	})
	e.Run(0)
}

func TestHaltStopsRun(t *testing.T) {
	e := New()
	count := 0
	for i := Time(0); i < 100; i++ {
		e.At(i, func(now Time) {
			count++
			if now == 10 {
				e.Halt()
			}
		})
	}
	e.Run(0)
	if count != 11 {
		t.Fatalf("fired %d events before halt, want 11", count)
	}
	if e.Pending() != 89 {
		t.Fatalf("pending = %d, want 89", e.Pending())
	}
}

func TestRunLimit(t *testing.T) {
	e := New()
	fired := 0
	e.At(5, func(Time) { fired++ })
	e.At(500, func(Time) { fired++ })
	end, hit := e.Run(100)
	if !hit {
		t.Fatal("limit not reported as hit")
	}
	if end != 100 {
		t.Fatalf("end = %d, want 100", end)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1 (event beyond limit must not fire)", fired)
	}
}

func TestStepEmptyQueue(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestCascadedScheduling(t *testing.T) {
	e := New()
	depth := 0
	var recur func(Time)
	recur = func(Time) {
		depth++
		if depth < 1000 {
			e.After(1, recur)
		}
	}
	e.At(0, recur)
	end, _ := e.Run(0)
	if depth != 1000 {
		t.Fatalf("depth = %d, want 1000", depth)
	}
	if end != 999 {
		t.Fatalf("end = %d, want 999", end)
	}
}

// Property: for any set of (time, id) pairs, the engine dispatches them
// sorted by time with ties broken by insertion order.
func TestPropertyDispatchOrder(t *testing.T) {
	f := func(raw []uint16) bool {
		type rec struct {
			at  Time
			idx int
		}
		e := New()
		var want, got []rec
		for i, r := range raw {
			at := Time(r % 64) // force plenty of ties
			want = append(want, rec{at, i})
			idx := i
			e.At(at, func(now Time) { got = append(got, rec{now, idx}) })
		}
		e.Run(0)
		sort.SliceStable(want, func(i, j int) bool { return want[i].at < want[j].at })
		if len(got) != len(raw) {
			return false
		}
		for i := range got {
			if got[i].at != want[i].at || got[i].idx != want[i].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// spawner is a Handler that hands each firing, with the id carried in its
// Arg, to a callback (which may schedule further events).
type spawner struct{ fire func(now Time, id int) }

func (s *spawner) Fire(now Time, a Arg) { s.fire(now, int(a.A)) }

// Property: events scheduled from inside a handler, at now+{0,1,2,3},
// interleave with those already queued exactly as a reference model that
// fires the least (time, scheduling order) says. This pins same-cycle FIFO
// for events added mid-run, on both the Handler and the Func path (even
// ids take one, odd ids the other).
func TestPropertyDispatchOrderInterleaved(t *testing.T) {
	const budget = 400 // events scheduled per case
	type ev struct {
		at Time
		id int
	}
	f := func(prog []byte) bool {
		if len(prog) == 0 {
			return true
		}
		// Event id, when it fires, schedules up to three children at
		// delays 0..3, all drawn from prog.
		children := func(id int) []Time {
			b := prog[id%len(prog)]
			out := make([]Time, b&3)
			for k := range out {
				out[k] = Time(b >> (2 + 2*k) & 3)
			}
			return out
		}
		initial := func(add func(Time)) {
			for i := 0; i < 4; i++ {
				add(Time(prog[i%len(prog)] % 8))
			}
		}

		// Reference model: a flat list; the least (at, id) fires next.
		var want, pending []ev
		nextID := 0
		add := func(at Time) {
			if nextID < budget {
				pending = append(pending, ev{at, nextID})
				nextID++
			}
		}
		initial(add)
		for len(pending) > 0 {
			m := 0
			for i, p := range pending {
				if p.at < pending[m].at || p.at == pending[m].at && p.id < pending[m].id {
					m = i
				}
			}
			cur := pending[m]
			pending = append(pending[:m], pending[m+1:]...)
			want = append(want, cur)
			for _, d := range children(cur.id) {
				add(cur.at + d)
			}
		}

		// The engine, running the same program.
		e := New()
		var got []ev
		nextID = 0
		var schedule func(at Time)
		fire := func(now Time, id int) {
			got = append(got, ev{now, id})
			for _, d := range children(id) {
				schedule(now + d)
			}
		}
		h := &spawner{fire: fire}
		schedule = func(at Time) {
			if nextID >= budget {
				return
			}
			id := nextID
			nextID++
			if id%2 == 0 {
				e.Schedule(at, h, Arg{A: uint64(id)})
			} else {
				e.At(at, func(now Time) { fire(now, id) })
			}
		}
		initial(schedule)
		e.Run(0)

		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// tally is a pre-bound handler that sums the Args it receives.
type tally struct {
	n   int
	sum uint64
}

func (t *tally) Fire(_ Time, a Arg) { t.n++; t.sum += a.A + a.B }

// Scheduling and dispatching a pre-bound handler allocates nothing, on the
// Handler path and the Func path alike: the pending-event set is data.
func TestScheduleAndStepAllocateNothing(t *testing.T) {
	e := New()
	h := &tally{}
	ticks := 0
	tick := Func(func(Time) { ticks++ })
	allocs := testing.AllocsPerRun(1000, func() {
		e.Schedule(e.Now()+1, h, Arg{A: 2, B: 1})
		e.At(e.Now()+2, tick)
		e.Step()
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("At + Step: %v allocs per op, want 0", allocs)
	}
	if h.n != 1001 || h.sum != 3*1001 || ticks != 1001 {
		t.Fatalf("handler fired %d times (arg sum %d), func %d times; want 1001 each", h.n, h.sum, ticks)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d after every event fired", e.Pending())
	}
	for i, it := range e.queue[:2] {
		if it.h != nil {
			t.Fatalf("popped slot %d still holds its handler", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		rng := rand.New(rand.NewSource(seed))
		e := New()
		var out []Time
		for i := 0; i < 500; i++ {
			e.At(Time(rng.Intn(100)), func(now Time) { out = append(out, now) })
		}
		e.Run(0)
		return out
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("nondeterministic event count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// spinner is a component whose events alternate two phases forever, as a
// processor spinning on a cached lock does: awake it schedules each next
// event, asleep it parks and lets the engine pass the slots.
type spinner struct {
	e     *Engine
	delay [2]Time
	sl    Sleep
	fired uint64 // slots fired for real
	phase uint64
}

func (s *spinner) Fire(now Time, arg Arg) {
	s.fired++
	s.phase = arg.A
	s.e.Schedule(now+s.delay[arg.A], s, Arg{A: arg.A ^ 1})
}

// slots is how many of the spinner's slots have gone by, fired or passed.
func (s *spinner) slots() uint64 { return s.fired + s.sl.passed[0] + s.sl.passed[1] }

// TestSleepKeepsItsPlace: spinners whose slots share cycles with real
// events scheduled at leads 0, 1, 2 and more interleave with them exactly
// as when every slot is dispatched, asleep and after a wake. Each real
// event logs the slots gone by so far, so the two logs match only if
// every slot kept its (time, seq) place. With one-cycle delays only, the
// gaps between real events pass in bulk; a two-cycle delay makes every
// slot pass one at a time.
func TestSleepKeepsItsPlace(t *testing.T) {
	for _, second := range [][2]Time{{1, 1}, {2, 1}} {
		keepsPlace(t, [][2]Time{{1, 1}, second, {1, 1}})
	}
}

func keepsPlace(t *testing.T, delays [][2]Time) {
	awake, _ := placeLog(delays, false, false)
	asleep, _ := placeLog(delays, true, false)
	if len(awake) != len(asleep) {
		t.Fatalf("awake run logged %d entries, sleeping run %d", len(awake), len(asleep))
	}
	for i := range awake {
		if awake[i] != asleep[i] {
			t.Fatalf("delays %v: logs diverge at entry %d: awake %d, sleeping %d", delays, i, awake[i], asleep[i])
		}
	}
}

// placeLog runs spinners with the given delays, asleep or awake, among
// real events that each log the time and the slots gone by so far; the
// log ends with the last sequence number taken. With deadlines, a chain
// of deadlines that each set the next runs alongside; it reports how many
// ran.
func placeLog(delays [][2]Time, sleep, deadlines bool) (log []uint64, ran int) {
	e := New()
	var spins []*spinner
	for _, d := range delays {
		spins = append(spins, &spinner{e: e, delay: d})
	}
	for i, s := range spins {
		if sleep {
			e.Park(&s.sl, Time(3+i), s.delay, s)
		} else {
			e.Schedule(Time(3+i), s, Arg{})
		}
	}
	rng := rand.New(rand.NewSource(7))
	id := uint64(0)
	if deadlines {
		drng := rand.New(rand.NewSource(11))
		var next Func
		next = func(now Time) {
			ran++
			e.Deadline(now+Time(drng.Intn(8)), next)
		}
		e.Deadline(5, next)
	}
	var drive Func
	logEv := Func(func(now Time) {
		log = append(log, uint64(now))
		for _, s := range spins {
			log = append(log, s.slots())
		}
	})
	drive = func(now Time) {
		logEv(now)
		for _, lead := range []Time{0, 1, 2, Time(3 + rng.Intn(6))} {
			if rng.Intn(2) == 0 {
				e.At(now+lead, logEv)
			}
		}
		id++
		if id == 40 && sleep {
			// Wake the first spinner mid-run; it resumes for real.
			e.Wake(&spins[0].sl)
		}
		if id < 80 {
			e.At(now+Time(rng.Intn(12)), drive)
		}
	}
	e.At(10, drive)
	e.Run(900)
	return append(log, e.seq), ran
}

// TestSleepPassesCyclesInBulk: with one-cycle delays and no queued event,
// a sleep passes a million cycles without dispatching anything, and its
// slot counts, phase and numbering come out as if each slot had passed.
func TestSleepPassesCyclesInBulk(t *testing.T) {
	e := New()
	a := &spinner{e: e, delay: [2]Time{1, 1}}
	b := &spinner{e: e, delay: [2]Time{1, 1}}
	e.Park(&a.sl, 1, a.delay, a)
	e.Park(&b.sl, 1, b.delay, b)
	e.Run(1_000_000)
	if e.Fired() != 0 {
		t.Fatalf("fired %d events, want 0", e.Fired())
	}
	if a.sl.passed != [2]uint64{500_000, 500_000} || b.sl.passed != a.sl.passed {
		t.Fatalf("passed %v and %v, want 500000 of each phase", a.sl.passed, b.sl.passed)
	}
	if a.sl.at != 1_000_001 || a.sl.phase != 0 || b.sl.seq != e.seq || a.sl.seq != e.seq-1 || e.seq != 2_000_002 {
		t.Fatalf("after the skip: at %d phase %d seqs %d,%d (engine %d)", a.sl.at, a.sl.phase, a.sl.seq, b.sl.seq, e.seq)
	}
	e.Wake(&b.sl)
	e.Run(1_000_001)
	if e.Fired() != 1 || b.fired != 1 || a.fired != 0 {
		t.Fatalf("after waking b: %d fired (a %d, b %d), want b's slot only", e.Fired(), a.fired, b.fired)
	}
}

// TestDeadlineFiresAmongSleeps: with only sleeps pending, a deadline runs
// at its cycle, whether the slots before it pass in bulk (one-cycle
// delays) or one at a time, and the sleeps come out of the run exactly as
// they do without it.
func TestDeadlineFiresAmongSleeps(t *testing.T) {
	for _, delay := range [][2]Time{{1, 1}, {2, 1}} {
		run := func(deadline bool) (a, b Sleep, at Time, slots uint64) {
			e := New()
			sa := &spinner{e: e, delay: delay}
			sb := &spinner{e: e, delay: delay}
			e.Park(&sa.sl, 1, delay, sa)
			e.Park(&sb.sl, 1, delay, sb)
			if deadline {
				e.Deadline(5_000, func(now Time) { at, slots = now, sa.slots() })
			}
			e.Run(10_000)
			if e.Fired() != 0 {
				t.Fatalf("delays %v: fired %d events, want 0", delay, e.Fired())
			}
			sa.sl.h, sb.sl.h = nil, nil // compare the slots, not the owners
			return sa.sl, sb.sl, at, slots
		}
		a, b, _, _ := run(false)
		da, db, at, slots := run(true)
		if at != 5_000 {
			t.Fatalf("delays %v: deadline ran at %d, want 5000", delay, at)
		}
		// The slots due before cycle 5000 have passed, and no other.
		if want := 4_999 / uint64(delay[0]+delay[1]) * 2; slots < want || slots > want+1 {
			t.Fatalf("delays %v: %d slots passed by the deadline, want about %d", delay, slots, want)
		}
		if da != a || db != b {
			t.Fatalf("delays %v: the deadline moved the sleeps: %+v %+v, want %+v %+v", delay, da, db, a, b)
		}
	}
}

// TestDeadlineDoesNotExtendFinishedRun: a deadline past the last event
// never runs, and the run ends at the last event; one before an event
// runs ahead of it, even in the same cycle.
func TestDeadlineDoesNotExtendFinishedRun(t *testing.T) {
	e := New()
	var log []Time
	e.At(10, func(now Time) { log = append(log, now) })
	e.At(20, func(now Time) { log = append(log, now) })
	e.Deadline(20, func(now Time) {
		log = append(log, 100+now)
		e.Deadline(1_000_000, func(now Time) { log = append(log, 100+now) })
	})
	end, hit := e.Run(0)
	if end != 20 || hit || e.Now() != 20 || e.Pending() != 0 {
		t.Fatalf("run ended at %d (limit %v, now %d, pending %d), want 20", end, hit, e.Now(), e.Pending())
	}
	if want := []Time{10, 120, 20}; !reflect.DeepEqual(log, want) {
		t.Fatalf("log %v, want %v", log, want)
	}
	if e.Fired() != 2 {
		t.Fatalf("fired %d events, want 2: a deadline is not an event", e.Fired())
	}
}

// TestDeadlineLeavesOrderUnchanged: a chain of deadlines running among
// real events and spinners, awake and asleep, leaves every event and slot
// at its (time, seq) place: the logs match a run without deadlines.
func TestDeadlineLeavesOrderUnchanged(t *testing.T) {
	for _, delays := range [][][2]Time{{{1, 1}, {1, 1}}, {{1, 1}, {2, 1}}} {
		for _, sleep := range []bool{false, true} {
			want, _ := placeLog(delays, sleep, false)
			got, ran := placeLog(delays, sleep, true)
			if ran < 100 {
				t.Fatalf("delays %v sleep %v: %d deadlines ran, want the chain to run throughout", delays, sleep, ran)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("delays %v sleep %v: deadlines changed the dispatch order", delays, sleep)
			}
		}
	}
}
