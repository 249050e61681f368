package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks; 0 for an empty slice. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssSampler polls the process's resident set size while a pass runs and
// keeps the peak. Reading /proc/self/statm costs a few microseconds, so a
// 5 ms period perturbs a pass by well under 0.1%.
type rssSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	peak uint64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{})}
	s.peak = readRSS()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if r := readRSS(); r > s.peak {
					s.peak = r
				}
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns the peak RSS in bytes.
func (s *rssSampler) finish() uint64 {
	close(s.stop)
	s.done.Wait()
	if r := readRSS(); r > s.peak {
		s.peak = r
	}
	return s.peak
}

// readRSS returns the current resident set size in bytes, or 0 where
// /proc is unavailable.
func readRSS() uint64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * uint64(os.Getpagesize())
}

// cpuModel returns the host CPU's model name, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// memSnap is the slice of runtime.MemStats a pass reports as deltas.
type memSnap struct {
	totalAlloc uint64
	mallocs    uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{ms.TotalAlloc, ms.Mallocs, ms.NumGC, ms.PauseTotalNs}
}
