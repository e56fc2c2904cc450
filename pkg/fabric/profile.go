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
	// MutexPath receives a pprof mutex-contention profile covering the
	// workload: where goroutines stalled waiting for locks held by others.
	MutexPath string
	// BlockPath receives a pprof blocking profile covering the workload:
	// time spent parked in channel waits, attributed to call sites.
	BlockPath string
}

// enabled reports whether any collector is requested.
func (p ProfileOptions) enabled() bool {
	return p.CPUPath != "" || p.MemPath != "" || p.TracePath != "" ||
		p.MutexPath != "" || p.BlockPath != ""
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
		if p.MutexPath != "" {
			runtime.SetMutexProfileFraction(0)
		}
		if p.BlockPath != "" {
			runtime.SetBlockProfileRate(0)
		}
		return nil, err
	}
	// The mutex/block collectors are runtime-global sampling rates rather
	// than stream writers: turn them on before the workload, snapshot the
	// accumulated profiles into files at stop, then turn them back off.
	if p.MutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if p.BlockPath != "" {
		runtime.SetBlockProfileRate(1)
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
		if p.MutexPath != "" {
			if err := writeLookupProfile("mutex", p.MutexPath); err != nil && first == nil {
				first = err
			}
			runtime.SetMutexProfileFraction(0)
		}
		if p.BlockPath != "" {
			if err := writeLookupProfile("block", p.BlockPath); err != nil && first == nil {
				first = err
			}
			runtime.SetBlockProfileRate(0)
		}
		return first
	}, nil
}

// writeLookupProfile snapshots one of the runtime's named accumulated
// profiles (mutex, block) into path in pprof proto form.
func writeLookupProfile(name, path string) error {
	prof := pprof.Lookup(name)
	if prof == nil {
		return fmt.Errorf("fabric: unknown profile %q", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("fabric: %s profile: %w", name, err)
	}
	if err := prof.WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("fabric: %s profile: %w", name, err)
	}
	return f.Close()
}
