package locks

import "sync/atomic"

// TTS is test&test&set with capped exponential backoff: the delayed
// waiters poll a shared word, but each failed attempt doubles the
// inserted delay — the software form of the paper's delayed-response
// insight that contended retries should be spaced out, not sped up.
// Unfair by design: release wakes every spinner and the backoff phase
// decides who wins.
type TTS struct {
	state atomic.Uint32
	tun   *Tuning
	instr instr
}

func newTTS(c config) *TTS {
	return &TTS{tun: c.tun, instr: instr{h: c.hooks}}
}

// Name implements Lock.
func (l *TTS) Name() string { return string(KindTTS) }

// Lock implements Lock.
func (l *TTS) Lock() {
	start := l.instr.start()
	if l.state.CompareAndSwap(0, 1) { // uncontended fast path
		l.instr.acquired(start)
		return
	}
	b := l.tun.backoff()
	for {
		// Test phase: read-only polling keeps the line shared while the
		// holder works (the test&TEST&set half).
		for l.state.Load() != 0 {
			b.pause()
		}
		if l.state.CompareAndSwap(0, 1) {
			l.instr.acquired(start)
			return
		}
		b.pause() // lost the race: back off before re-testing
	}
}

// Unlock implements Lock.
func (l *TTS) Unlock() {
	l.instr.releasing()
	l.state.Store(0)
}
