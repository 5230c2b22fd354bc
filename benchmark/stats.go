package main

import (
	"fmt"
	"math/bits"
	"os"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hist is a log-linear histogram of durations in ns: 64 buckets per
// power of two, so a bucket is at most 1.6 % wide and a quantile is
// interpolated inside it. Fixed size, no allocation on add.
type hist struct {
	n      uint64
	counts [histBuckets]uint32
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	histMaxBits = 40 // values are clamped below 2^40 ns, about 18 minutes
	histBuckets = (histMaxBits - histSubBits + 1) * histSub
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	shift := bits.Len64(v) - histSubBits - 1
	return (shift+1)*histSub + int(v>>shift) - histSub
}

// histBounds returns the value range [lo, hi) of bucket i.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	shift := i/histSub - 1
	l := uint64(i%histSub+histSub) << shift
	return float64(l), float64(l + 1<<shift)
}

func (h *hist) add(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(uint64(d))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ns, 0 with no samples.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}

// medianAndTail returns the two latencies the benchmark reports, in ns:
// the median, and the tail quantile, or the highest below it that the
// sample count supports.
func (h *hist) medianAndTail(tail float64) (p50, pTail float64) {
	return h.quantile(0.5), h.quantile(min(tail, tailQuantile(h.n)))
}

// above counts the samples of buckets that lie wholly above limit.
func (h *hist) above(limit time.Duration) uint64 {
	var n uint64
	for i := histBucket(uint64(limit)) + 1; i < histBuckets; i++ {
		n += uint64(h.counts[i])
	}
	return n
}

// tailQuantile is the highest quantile, at most 0.99, that still has ten
// samples beyond it; a percentile with fewer says nothing repeatable.
func tailQuantile(n uint64) float64 {
	if n < 20 {
		return 0.5
	}
	if q := 1 - 10/float64(n); q < 0.99 {
		return q
	}
	return 0.99
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives, which is how the benchmark's
// bounds are applied; one sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's peak resident set from VmHWM. getrusage's
// ru_maxrss would not do: across exec it keeps the parent's peak.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// cpuSet is a processor mask as sched_setaffinity(2) takes it: room for
// 1024 processors.
type cpuSet [16]uint64

// affinity reads (set false) or writes the processors thread tid may run
// on; tid 0 is the calling thread.
func affinity(tid int, set bool, mask *cpuSet) syscall.Errno {
	trap := uintptr(syscall.SYS_SCHED_GETAFFINITY)
	if set {
		trap = syscall.SYS_SCHED_SETAFFINITY
	}
	_, _, e := syscall.RawSyscall(trap, uintptr(tid), unsafe.Sizeof(*mask), uintptr(unsafe.Pointer(mask)))
	return e
}

// bindToOneCPU binds every thread of the process, those running and those
// to come, to the highest-numbered processor it may run on. A workload
// that runs Go code on one thread at a time still has others (the open
// loop's generator asleep in nanosleep, the runtime's monitor), and where
// the kernel puts them is a mode that lasts the whole run: side by side on
// two processors every wake-up is an inter-processor interrupt, which on a
// virtual machine is an exit to the host, and open_mixed pays 80-95 us of
// CPU per op where it pays 55-63 with all of them on one. Which it is
// depends on what the machine did just before, such as the previous
// workload; bound, the run does not.
func bindToOneCPU() error {
	var allowed, one cpuSet
	if e := affinity(0, false, &allowed); e != 0 {
		return fmt.Errorf("sched_getaffinity: %w", e)
	}
	for i := len(allowed)*64 - 1; i >= 0; i-- {
		if allowed[i/64]&(1<<(i%64)) != 0 {
			one[i/64] = 1 << (i % 64)
			break
		}
	}
	// A new thread starts with its creator's mask, so once a pass finds
	// every thread bound, every later thread is bound too.
	for changed := true; changed; {
		changed = false
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, _ := strconv.Atoi(t.Name())
			var has cpuSet
			if e := affinity(tid, false, &has); e != 0 || has == one {
				continue // the thread has ended, or is bound already
			}
			if e := affinity(tid, true, &one); e != 0 && e != syscall.ESRCH {
				return fmt.Errorf("sched_setaffinity: %w", e)
			}
			changed = true
		}
	}
	return nil
}
