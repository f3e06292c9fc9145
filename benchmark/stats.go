package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// percentile returns the exact q-quantile (nearest rank) of sorted.
func percentile[T int64 | uint32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 0.5)
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is how the driver measures a metric's spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p*float64(len(s)+1) - 1
		lo := min(max(int(math.Floor(pos)), 0), len(s)-2)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	if len(s) < 2 {
		return s[0], s[0]
	}
	return at(0.25), at(0.75)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// meter accumulates process CPU, heap allocation and GC activity over
// the measured cycles only: the runner pauses it around untimed
// verification so that work does not count. ReadMemStats stops the
// world, which is acceptable at the few segment boundaries it is read at.
type meter struct {
	cpu     time.Duration
	alloc   uint64
	gcPause time.Duration
	gcCount uint32

	cpu0 time.Duration
	mem0 runtime.MemStats
}

func (m *meter) resume() {
	runtime.ReadMemStats(&m.mem0)
	m.cpu0 = cpuTime()
}

func (m *meter) pause() {
	m.cpu += cpuTime() - m.cpu0
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	m.alloc += mem.TotalAlloc - m.mem0.TotalAlloc
	m.gcPause += time.Duration(mem.PauseTotalNs - m.mem0.PauseTotalNs)
	m.gcCount += mem.NumGC - m.mem0.NumGC
}

// segments accumulates a vector of monotone counters over the measured
// segments of a run, leaving out what happens between them.
type segments struct {
	acc, base []uint64
}

func (s *segments) begin(now []uint64) { s.base = now }

// end adds the segment since begin to the totals and returns it.
func (s *segments) end(now []uint64) []uint64 {
	seg := make([]uint64, len(now))
	if s.acc == nil {
		s.acc = make([]uint64, len(now))
	}
	for i := range now {
		seg[i] = now[i] - s.base[i]
		s.acc[i] += seg[i]
	}
	return seg
}
