package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
)

// median returns the middle value (mean of the two middle values for an
// even count); zero for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// tail returns the highest-percentile job time that still has at least ten
// jobs beyond it, with a description of what it is. Below 20 jobs no
// percentile at or above the median has ten jobs beyond it, so the slowest
// job is returned instead and the description says so.
func tail(xs []float64) (float64, string) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return math.NaN(), "not measured: no jobs"
	}
	if n < 20 {
		return s[n-1], fmt.Sprintf("slowest of %d jobs (fewer than 20 jobs, so no percentile has ten jobs beyond it)", n)
	}
	return s[n-11], fmt.Sprintf("p%.0f of %d jobs (10 jobs beyond it)", 100*float64(n-10)/float64(n), n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or NaN when den is zero; NaN never passes an equality
// check, so a missing denominator cannot hide as an exact figure.
func ratio(num, den float64) float64 {
	if den == 0 {
		return math.NaN()
	}
	return num / den
}

// runtimeSample is one read of the runtime counters a job is charged with.
type runtimeSample struct {
	allocBytes, allocObjects float64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readRuntime samples the runtime counters. The CPU classes are estimates
// the runtime refreshes at the end of each GC cycle, so a delta taken
// across a job covers the job up to its last completed cycle.
func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, name := range runtimeNames {
		samples[i].Name = name
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: val(0), allocObjects: val(1),
		gcCPU: val(2), totalCPU: val(3), idleCPU: val(4),
	}
}

// runtimeDelta is what one job cost the runtime.
type runtimeDelta struct {
	allocMB, allocs, gcCPUFrac float64
}

func (a runtimeSample) to(b runtimeSample) runtimeDelta {
	d := runtimeDelta{
		allocMB: (b.allocBytes - a.allocBytes) / (1 << 20),
		allocs:  b.allocObjects - a.allocObjects,
	}
	// A job that completed no GC cycle leaves the CPU classes unchanged:
	// it spent no collector time.
	if busy := (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU); busy > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / busy
	}
	return d
}

// peakRSSMB is the process's peak resident set. One process runs one
// workload, so this is the workload's own peak.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
