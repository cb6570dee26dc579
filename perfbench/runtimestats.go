package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// rtSnapshot is the Go runtime's state at one instant: runtime/metrics
// counters plus the process's CPU time from getrusage.
type rtSnapshot struct {
	at         time.Time
	gcCycles   uint64
	gcCPU      float64
	totalCPU   float64
	allocBytes uint64
	allocObjs  uint64
	procCPU    time.Duration
	minorFault int64
	schedLat   *metrics.Float64Histogram
}

var rtSamples = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
}

func takeRuntime() rtSnapshot {
	s := make([]metrics.Sample, len(rtSamples))
	for i, name := range rtSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	snap := rtSnapshot{at: time.Now()}
	snap.procCPU, snap.minorFault = processUsage()
	if s[0].Value.Kind() == metrics.KindUint64 {
		snap.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		snap.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		snap.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindUint64 {
		snap.allocBytes = s[3].Value.Uint64()
	}
	if s[4].Value.Kind() == metrics.KindUint64 {
		snap.allocObjs = s[4].Value.Uint64()
	}
	if s[5].Value.Kind() == metrics.KindFloat64Histogram {
		snap.schedLat = s[5].Value.Float64Histogram()
	}
	return snap
}

// processCPU is the whole process's user plus system CPU time so far.
// The throughput metrics divide by it rather than by wall time: time
// the host gives to other tenants is not charged to it, so a run on a
// shared host reads the program's work, not the host's load.
func processCPU() time.Duration {
	cpu, _ := processUsage()
	return cpu
}

// processUsage is the whole process's user plus system CPU time and
// its minor page faults so far.
func processUsage() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Minflt
}

// runtimeLayer reports the runtime.* per-layer metrics for the phase
// between two snapshots; units is the workload's unit count (device
// rounds or sessions) over that phase.
func runtimeLayer(before, after rtSnapshot, units float64) map[string]float64 {
	wall := after.at.Sub(before.at).Seconds()
	out := map[string]float64{
		"runtime.gc_cycles":            float64(after.gcCycles - before.gcCycles),
		"runtime.alloc_bytes_per_unit": 0,
		"runtime.allocs_per_unit":      0,
		"runtime.gc_cpu_share":         0,
		"runtime.cpu_per_wall":         0,
		"runtime.sched_latency_p99_us": schedP99(before.schedLat, after.schedLat) * 1e6,
	}
	if units > 0 {
		out["runtime.alloc_bytes_per_unit"] = float64(after.allocBytes-before.allocBytes) / units
		out["runtime.allocs_per_unit"] = float64(after.allocObjs-before.allocObjs) / units
	}
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		out["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / cpu
	}
	if wall > 0 {
		out["runtime.cpu_per_wall"] = (after.procCPU - before.procCPU).Seconds() / wall
	}
	return out
}

// schedP99 is the 99th percentile of the scheduling latencies recorded
// between two histogram snapshots, in seconds (the bucket's upper
// bound).
func schedP99(before, after *metrics.Float64Histogram) float64 {
	if after == nil {
		return 0
	}
	counts := make([]uint64, len(after.Counts))
	var total uint64
	for i, c := range after.Counts {
		if before != nil && i < len(before.Counts) {
			c -= before.Counts[i]
		}
		counts[i] = c
		total += c
	}
	if total == 0 {
		return 0
	}
	want := uint64(float64(total)*0.99 + 0.5)
	var seen uint64
	for i, c := range counts {
		seen += c
		if seen >= want {
			hi := after.Buckets[i+1]
			if hi > 1e9 { // the last bucket is open-ended
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return after.Buckets[len(after.Buckets)-1]
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB, falling
// back to the runtime's total mapped memory where /proc is missing.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer func() { _ = f.Close() }() // read only
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if len(fields) > 0 {
					if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
