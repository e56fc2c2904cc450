package fabric

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// ProfileOptions asks the Runner to record pprof artifacts around the
// workload. Like every other Runner field it tunes observation only:
// profiles change nothing in any simulation result, so a profiled run's
// tables and fingerprints stay byte-identical to an unprofiled one.
// Empty paths disable the corresponding collector.
type ProfileOptions struct {
	// CPUPath receives a pprof CPU profile covering the workload.
	CPUPath string
	// MemPath receives a pprof heap profile written after the workload
	// (with a GC first, so it reflects live retention, not garbage).
	MemPath string
}

// enabled reports whether any collector is requested.
func (p ProfileOptions) enabled() bool {
	return p.CPUPath != "" || p.MemPath != ""
}

// start begins the requested collectors and returns the matching stop
// function, to be called exactly once.
func (p ProfileOptions) start() (stop func() error, err error) {
	var cpuFile *os.File
	if p.CPUPath != "" {
		if cpuFile, err = os.Create(p.CPUPath); err != nil {
			return nil, fmt.Errorf("fabric: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("fabric: cpu profile: %w", err)
		}
	}
	return func() error {
		var first error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			first = cpuFile.Close()
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
