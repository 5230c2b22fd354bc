package adaptive

import "iqolb/locks"

// Band is a quantized contention level. The tuner maps its estimator onto
// bands rather than continuous values so the locks.Tuning actuator is
// written only on band transitions — retuning is cheap for the readers
// (one atomic load per acquire) but pointless churn still costs the
// writer a cache-line invalidation per field.
type Band int

const (
	// BandLow: uncontended or nearly so. Short initial delays, small
	// cap, generous optimistic spin — favor the fast path.
	BandLow Band = iota
	// BandMid: a steady queue exists. Default-ish delays, less
	// optimism.
	BandMid
	// BandHigh: heavy contention. Long capped delays sized to many
	// critical sections and near-zero optimistic spinning — the
	// paper's "insert a delay and get out of the way".
	BandHigh
)

func (b Band) String() string {
	switch b {
	case BandLow:
		return "low"
	case BandMid:
		return "mid"
	case BandHigh:
		return "high"
	}
	return "unknown"
}

// valuesFor is the controller's band→parameters map. The
// numbers move the two delay knobs the paper cares about (initial and
// cap of the inserted delay) together with the spin-then-queue lock's
// optimism budget.
func valuesFor(b Band) locks.TuningValues {
	v := locks.DefaultTuningValues()
	switch b {
	case BandLow:
		v.BackoffCap = 1 << 9
		v.SpinAttempts = 16
	case BandMid:
		// defaults
	case BandHigh:
		v.BackoffInitial = 1 << 6
		v.BackoffCap = 1 << 15
		v.SpinAttempts = 1
		v.TicketUnit = 1 << 8
	}
	return v
}

// bandTuner drives locks.Tuning from the controller's mean queue-depth
// estimate. Band edges get hysteresis margins and a dwell so the
// actuator cannot flap.
type bandTuner struct {
	tun   *locks.Tuning
	band  Band
	dwell int
	min   int
}

func newBandTuner(tun *locks.Tuning, dwellTicks int) *bandTuner {
	t := &bandTuner{tun: tun, band: BandMid, min: dwellTicks}
	tun.Set(valuesFor(BandMid))
	return t
}

// tick classifies the mean queue depth into a band. Enter thresholds
// are deliberately offset from exit thresholds (0.5/2.0 up, 0.25/1.0
// down) — a value oscillating on an edge stays put.
func (t *bandTuner) tick(meanQueue float64) {
	t.dwell++
	next := t.band
	switch t.band {
	case BandLow:
		if meanQueue >= 2.0 {
			next = BandHigh
		} else if meanQueue >= 0.5 {
			next = BandMid
		}
	case BandMid:
		if meanQueue >= 2.0 {
			next = BandHigh
		} else if meanQueue <= 0.25 {
			next = BandLow
		}
	case BandHigh:
		if meanQueue <= 0.25 {
			next = BandLow
		} else if meanQueue <= 1.0 {
			next = BandMid
		}
	}
	if next == t.band || t.dwell < t.min {
		return
	}
	t.band = next
	t.dwell = 0
	t.tun.Set(valuesFor(next))
}
