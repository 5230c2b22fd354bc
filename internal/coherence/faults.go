package coherence

import (
	"sort"

	"iqolb/internal/faults"
	"iqolb/internal/mem"
	"iqolb/internal/trace"
)

// Fault injection and graceful degradation. The fabric carries an
// optional per-machine faults.Injector consulted at the protocol's
// decision points (delay flush, timer arm, tear-off send, hand-off
// target selection, SC classification). The injector is per machine, so
// faulted machines and clean machines can run in the same process
// concurrently.
//
// Degradation is the recovery half: Degrade forces the fabric out of
// the delayed-response protocol into plain-RFO semantics — every armed
// delay is flushed, no new delay starts, and no further fault fires —
// so a run wedged by an injected (or real) stuck delay completes with
// correct final state instead of starving.

// SetFaultInjector attaches a per-machine fault-injection plan's runtime
// state (nil detaches). Call before Run; machine.New wires it from
// Config.Faults.
func (f *Fabric) SetFaultInjector(in *faults.Injector) { f.inj = in }

// FaultInjector exposes the attached injector (nil when the machine runs
// clean) for result records and failure manifests.
func (f *Fabric) FaultInjector() *faults.Injector { return f.inj }

// fireFault rolls one injection opportunity for kind on line. A degraded
// fabric injects nothing: degradation is the protocol's safe mode.
func (f *Fabric) fireFault(k faults.Kind, line mem.LineID) bool {
	if f.inj == nil || f.degraded {
		return false
	}
	if !f.inj.Fire(k, uint64(f.eng.Now())) {
		return false
	}
	f.probeFaultInjected(k, line)
	return true
}

// lineStuck reports whether an injected StuckDelay has wedged the line's
// delay machinery. The injection itself is rolled where the delay timer
// is armed (Controller.armTimer), so one roll covers a whole delay
// episode; this predicate only honors the resulting mark.
func (f *Fabric) lineStuck(line mem.LineID) bool {
	return !f.degraded && f.at(line).stuck
}

// markStuck wedges the line's delay machinery (StuckDelay injection).
func (f *Fabric) markStuck(line mem.LineID) { f.track(line).stuck = true }

// Degrade forces the machine into plain-RFO semantics: delaying()
// answers false everywhere, every armed delayed response is flushed on
// the spot (stuck lines included — the injector is bypassed once
// degraded), and no further fault fires. Idempotent; safe to call from
// a monitor's after-step hook mid-run. The check monitor's starvation
// watchdog is the intended caller (check.Config.Degrader).
func (f *Fabric) Degrade(reason string) {
	if f.degraded {
		return
	}
	f.Settle()
	f.degraded = true
	f.degradeReason = reason
	f.probeDegraded(reason)
	for _, n := range f.nodes {
		n.releaseAllDelays()
	}
}

// Degraded reports whether (and why) the fabric fell back to plain-RFO
// semantics.
func (f *Fabric) Degraded() (bool, string) { return f.degraded, f.degradeReason }

// releaseAllDelays flushes every delayed duty on the node and re-walks
// the remaining queues, in deterministic line order (the map's iteration
// order must not leak into the event schedule).
func (c *Controller) releaseAllDelays() {
	var lines []mem.LineID
	for line, ls := range c.lines {
		if len(ls.duties) > 0 {
			lines = append(lines, line)
		}
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		if !c.l2.State(line).CanRead() {
			continue // loaned out or gone; duties travel with the line
		}
		if d := c.delayedDuty(line); d != nil {
			c.st.DelaysReleased++
			c.forwardOwnership(line, trace.EvDelayEnd, "degraded to plain-RFO")
			continue
		}
		c.processDuties(line)
	}
}
