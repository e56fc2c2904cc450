package main

import (
	"runtime"
	"syscall"
)

// memDelta is the allocator's and collector's work over an interval.
// Allocation counts repeat exactly at one shard; HeapSys and RSS do not
// (they vary by a quarter between identical runs), which is why memory
// is a per-layer reading here and never gated.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPauseNS      uint64
	heapSys        uint64
}

type memSnapshot struct{ s runtime.MemStats }

func readMem() memSnapshot {
	var m memSnapshot
	runtime.ReadMemStats(&m.s)
	return m
}

func (m memSnapshot) since(before memSnapshot) memDelta {
	return memDelta{
		mallocs:   m.s.Mallocs - before.s.Mallocs,
		bytes:     m.s.TotalAlloc - before.s.TotalAlloc,
		gcCycles:  m.s.NumGC - before.s.NumGC,
		gcPauseNS: m.s.PauseTotalNs - before.s.PauseTotalNs,
		heapSys:   m.s.HeapSys,
	}
}

func (d memDelta) metrics(m map[string]float64, ops int64) {
	if ops > 0 {
		m["runtime.mallocs_per_op"] = float64(d.mallocs) / float64(ops)
		m["runtime.alloc_bytes_per_op"] = float64(d.bytes) / float64(ops)
	}
	m["runtime.gc_cycles"] = float64(d.gcCycles)
	m["runtime.gc_pause_ms"] = float64(d.gcPauseNS) / 1e6
	m["runtime.heap_sys_mb"] = float64(d.heapSys) / (1 << 20)
	m["runtime.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
