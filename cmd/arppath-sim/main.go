// Command arppath-sim runs any fabric.Spec, whatever its workload kind
// (fabric.WorkloadSpec lists them). The Spec chooses what runs; the flags only
// choose how the run is shown, so every flag sets a fabric.Runner field
// or an artifact path and none of them changes a result. With no -spec it
// runs a Figure 2 ping. examples/specs holds a fixture per workload.
//
// Usage:
//
//	arppath-sim [-spec FILE] [-csv] [-trace] [-j N] [-v]
//	            [-bench-out FILE] [-cpuprofile FILE] [-memprofile FILE]
//
// Exit status: 0 on success; 1 when the run finished but failed (a
// workload that did not complete, or failing sweep scenarios); 2 on a
// usage or spec error, or any other error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/pkg/fabric"
)

func main() {
	specPath := flag.String("spec", "", "run the spec file (default: a Figure 2 ping)")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text, without the ASCII graphs")
	traceFlag := flag.Bool("trace", false, "stream a tcpdump-style view of every frame delivery to stderr")
	jobs := flag.Int("j", 0, "sweep scenarios to run concurrently (0 = GOMAXPROCS)")
	verbose := flag.Bool("v", false, "print every sweep scenario, not just failures")
	benchOut := flag.String("bench-out", "", "write the run's JSON artifact (workload kind tables) to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the workload to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-workload, after GC) to this file")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "arppath-sim: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}

	spec := fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "ping"}}
	if *specPath != "" {
		var err error
		if spec, err = fabric.LoadSpec(*specPath); err != nil {
			fail(err)
		}
	}
	if *benchOut != "" {
		if err := spec.CheckBenchJSON(); err != nil {
			fail(fmt.Errorf("-bench-out %s: %w", *benchOut, err))
		}
	}
	runner := fabric.Runner{
		Spec: spec, CSV: *csv, Jobs: *jobs, Verbose: *verbose,
		Profile: fabric.ProfileOptions{CPUPath: *cpuProfile, MemPath: *memProfile},
	}
	if *traceFlag {
		runner.TraceTo = os.Stderr
	}
	res, err := runner.Run()
	switch {
	case errors.Is(err, fabric.ErrIncomplete):
		os.Exit(1)
	case err != nil:
		fail(err)
	case res.Failures > 0:
		os.Exit(1)
	}
	if *benchOut != "" {
		if err := os.WriteFile(*benchOut, res.BenchJSON, 0o644); err != nil {
			fail(err)
		}
	}
}

// fail reports an error that is not a failed run and exits 2.
func fail(err error) {
	fmt.Fprintf(os.Stderr, "arppath-sim: %v\n", err)
	os.Exit(2)
}
