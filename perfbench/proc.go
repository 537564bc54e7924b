package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// procSample is a point-in-time reading of the Go runtime and the process,
// taken at phase boundaries so a phase's allocations, GC CPU and process
// CPU can be divided by the operations it ran.
type procSample struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64 // seconds, as the runtime accounts them
	procCPU, sysCPU     int64   // user+system and system microseconds (getrusage)
	numGC               uint32
}

var cpuMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	copy(s, cpuMetrics)
	metrics.Read(s)
	cpu, sys := processCPU()
	return procSample{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCPU:      floatOf(s[0]),
		totalCPU:   floatOf(s[1]),
		procCPU:    cpu,
		sysCPU:     sys,
		numGC:      ms.NumGC,
	}
}

// processCPU returns the process's user + system CPU time, and its system
// time, in µs (getrusage).
func processCPU() (cpu, sys int64) {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	sys = ru.Stime.Sec*1e6 + int64(ru.Stime.Usec)
	return ru.Utime.Sec*1e6 + int64(ru.Utime.Usec) + sys, sys
}

func floatOf(s metrics.Sample) float64 {
	if s.Value.Kind() == metrics.KindFloat64 {
		return s.Value.Float64()
	}
	return 0
}

// runtimeLayer adds the runtime and process metrics of the interval a..b,
// per operation of the ops it ran.
func runtimeLayer(out map[string]metric, a, b procSample, ops int) {
	n := float64(ops)
	out["runtime.allocs_per_op"] = metric{ratio(float64(b.mallocs-a.mallocs), n), "count"}
	out["runtime.alloc_bytes_per_op"] = metric{ratio(float64(b.allocBytes-a.allocBytes), n), "B"}
	out["runtime.gc_cpu_frac"] = metric{ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU), "frac"}
	out["process.cpu_us_per_op"] = metric{ratio(float64(b.procCPU-a.procCPU), n), "us"}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, os.ErrNotExist
}
