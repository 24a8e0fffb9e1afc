package main

import (
	"math"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// tailLadder is the set of percentiles a tail is reported at, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// Pct is one reported percentile: the quantile actually reached, its
// value, and how many samples lie beyond it.
type Pct struct {
	Q      float64
	Value  float64
	Beyond int
	N      int
}

// rank is the nearest-rank index of quantile q among n sorted samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	if r >= n {
		r = n - 1
	}
	return r
}

// median returns the nearest-rank median of samples.
func median(samples []float64) Pct {
	if len(samples) == 0 {
		return Pct{Q: 0.5}
	}
	samples = sortedCopy(samples)
	r := rank(len(samples), 0.5)
	return Pct{Q: 0.5, Value: samples[r], Beyond: len(samples) - 1 - r, N: len(samples)}
}

// tail returns the highest percentile at or below want that has at least
// ten samples beyond it, with that count. With
// too few samples for even the median it returns the median and says so
// through Beyond.
func tail(samples []float64, want float64) Pct {
	if len(samples) == 0 {
		return Pct{Q: want}
	}
	samples = sortedCopy(samples)
	n := len(samples)
	for _, q := range tailLadder {
		if q > want {
			continue
		}
		r := rank(n, q)
		if n-1-r >= 10 {
			return Pct{Q: q, Value: samples[r], Beyond: n - 1 - r, N: n}
		}
	}
	return median(samples)
}

func sortedCopy(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuNow reports this process's user+system CPU time.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// threadCPU reports the calling thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// maxRSSMB reports this process's peak resident set in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func medianDuration(ds []time.Duration) time.Duration {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = float64(d)
	}
	return time.Duration(median(s).Value)
}

// windowSamples is the fewest samples a window holds, so that its p99
// has ten samples beyond it; maxWindows caps the split.
const (
	windowSamples = 1000
	maxWindows    = 8
)

// windowed splits samples into equal stretches of due time (at, unix ns),
// as many as hold 1.5 windowSamples each on average (1 to maxWindows), and
// returns the median over windows of each window's median and of its
// tail (the highest percentile up to p99 with ten samples beyond it).
// Medians over windows keep a second-long hiccup of a shared machine from
// moving a run's figure. p50.N is the sample count; p99.N the window
// count and p99.Q the lowest tail quantile any window reached.
func windowed(samples []float64, at []int64) (p50, p99 Pct) {
	if len(samples) == 0 {
		return Pct{Q: 0.5}, Pct{Q: 0.99}
	}
	n := len(samples) / (windowSamples * 3 / 2)
	n = max(1, min(maxWindows, n))
	lo, hi := at[0], at[0]
	for _, t := range at {
		lo, hi = min(lo, t), max(hi, t)
	}
	wins := make([][]float64, n)
	for i, t := range at {
		k := int((t - lo) * int64(n) / (hi - lo + 1))
		wins[k] = append(wins[k], samples[i])
	}
	var mids, tails []float64
	p99.Q = 0.99
	for _, w := range wins {
		if len(w) == 0 {
			continue
		}
		mids = append(mids, median(w).Value)
		t := tail(w, 0.99)
		tails = append(tails, t.Value)
		p99.Q = min(p99.Q, t.Q)
	}
	p50 = Pct{Q: 0.5, Value: median(mids).Value, N: len(samples)}
	p99.Value, p99.N = median(tails).Value, len(tails)
	return p50, p99
}
