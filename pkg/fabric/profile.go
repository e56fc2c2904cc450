package fabric

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
)

// ProfileOptions asks the Runner to record pprof/runtime-trace artifacts
// around the workload. Like every other Runner field it tunes observation
// only: profiles change nothing in any simulation result, so a profiled
// run's tables and fingerprints stay byte-identical to an unprofiled one.
// Empty paths disable the corresponding collector.
type ProfileOptions struct {
	// CPUPath receives a pprof CPU profile covering the workload.
	CPUPath string
	// MemPath receives a pprof heap profile written after the workload
	// (with a GC first, so it reflects live retention, not garbage).
	MemPath string
	// TracePath receives a runtime execution trace covering the workload
	// (goroutine scheduling, GC, syscalls).
	TracePath string
}

// enabled reports whether any collector is requested.
func (p ProfileOptions) enabled() bool {
	return p.CPUPath != "" || p.MemPath != "" || p.TracePath != ""
}

// start begins the requested collectors and returns the matching stop
// function. The stop function is idempotent-safe to call exactly once.
func (p ProfileOptions) start() (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	fail := func(err error) (func() error, error) {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			rtrace.Stop()
			traceFile.Close()
		}
		return nil, err
	}
	if p.CPUPath != "" {
		cpuFile, err = os.Create(p.CPUPath)
		if err != nil {
			return fail(fmt.Errorf("fabric: cpu profile: %w", err))
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			cpuFile = nil
			return fail(fmt.Errorf("fabric: cpu profile: %w", err))
		}
	}
	if p.TracePath != "" {
		traceFile, err = os.Create(p.TracePath)
		if err != nil {
			return fail(fmt.Errorf("fabric: exec trace: %w", err))
		}
		if err := rtrace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			return fail(fmt.Errorf("fabric: exec trace: %w", err))
		}
	}
	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil && first == nil {
				first = err
			}
		}
		if traceFile != nil {
			rtrace.Stop()
			if err := traceFile.Close(); err != nil && first == nil {
				first = err
			}
		}
		if p.MemPath != "" {
			f, err := os.Create(p.MemPath)
			if err != nil {
				if first == nil {
					first = err
				}
			} else {
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
					first = err
				}
				if err := f.Close(); err != nil && first == nil {
					first = err
				}
			}
		}
		return first
	}, nil
}
