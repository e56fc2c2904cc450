// Command fabricbench runs the extended experiments derived from the
// paper's §2.2 claims (DESIGN.md T1–T4): the loop-freedom/no-blocking
// properties table, load distribution on a fat tree, ARP-proxy broadcast
// suppression, the repair ablation, and the scaling experiment for the
// sharded engine (DESIGN.md §8). It is a thin shell over
// pkg/fabric: flags compile into a fabric.Spec, or -spec loads one and
// explicitly set flags override it.
//
// Usage:
//
//	fabricbench [-spec FILE]
//	            [-exp properties|load|proxy|repair|lockwindow|tablesize|forward|scale|allpath|tables|all]
//	            [-seed N] [-shards K] [-csv] [-bench-out FILE]
//	            [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//	            [-mutexprofile FILE] [-blockprofile FILE]
//
// The profiling flags record pprof/runtime-trace artifacts around the
// workload (DESIGN.md §11 documents the recipe); they change nothing in
// any table, figure or fingerprint. -mutexprofile and -blockprofile
// capture lock contention and blocking waits.
//
// -shards runs every experiment's simulation on K engine shards, in
// lookahead windows on one goroutine; all figure/table outputs are
// byte-identical for any K (only wall-clock rates change). -exp scale
// sweeps shard counts 1..K on a 256-bridge fabric and prints each run's
// wall-clock figures and coordinator counts on stderr, with the Go
// runtime's GOMAXPROCS named on every line.
// -bench-out writes -exp tables' rows as JSON.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/pkg/fabric"
)

func main() {
	specPath := flag.String("spec", "", "run the spec file (explicitly set flags override it)")
	exp := flag.String("exp", "all", "experiment: properties, load, proxy, repair, lockwindow, tablesize, forward, scale, allpath, tables or all")
	seed := flag.Int64("seed", 1, "simulation seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	frames := flag.Int("frames", 50_000, "data frames to pump in -exp forward")
	shards := flag.Int("shards", 1, "run simulations on K engine shards (same results, lookahead windows on one goroutine)")
	bridges := flag.Int("bridges", 0, "fabric size override for -exp scale / -exp allpath (0 = the experiment's default)")
	conversations := flag.Int("conversations", 0, "conversation count override for -exp tables (0 = the spec/experiment default)")
	benchOut := flag.String("bench-out", "", "write the -exp tables JSON artifact to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the workload to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile (post-workload, after GC) to this file")
	execTrace := flag.String("trace", "", "write a runtime execution trace of the workload to this file")
	mutexProfile := flag.String("mutexprofile", "", "write a pprof mutex-contention profile of the workload to this file")
	blockProfile := flag.String("blockprofile", "", "write a pprof blocking profile of the workload to this file")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "fabricbench: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}

	spec := fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "all"}}
	if *specPath != "" {
		var err error
		spec, err = fabric.LoadSpec(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabricbench: %v\n", err)
			os.Exit(2)
		}
	}
	use := fabric.FlagOverrides(flag.CommandLine, *specPath != "")
	if use("exp") {
		spec.Workload.Kind = *exp
	}
	if use("seed") {
		spec.Seed = *seed
	}
	if use("shards") {
		spec.Shards = *shards
	}
	if use("frames") {
		spec.Workload.Frames = *frames
	}
	if use("bridges") && *bridges > 0 {
		spec.Workload.Bridges = *bridges
	}
	if use("conversations") && *conversations > 0 {
		spec.Workload.Conversations = *conversations
	}

	switch spec.Workload.Kind {
	case "properties", "load", "proxy", "repair", "lockwindow", "tablesize", "forward", "scale", "allpath", "tables", "all":
	default:
		fmt.Fprintf(os.Stderr, "fabricbench: unknown experiment %q\n", spec.Workload.Kind)
		os.Exit(2)
	}
	// A value the spec rules reject is a usage error like the two above,
	// not a failed run.
	if _, err := spec.WithDefaults(); err != nil {
		fmt.Fprintf(os.Stderr, "fabricbench: %v\n", err)
		os.Exit(2)
	}

	runner := fabric.Runner{Spec: spec, CSV: *csv, Profile: fabric.ProfileOptions{
		CPUPath: *cpuProfile, MemPath: *memProfile, TracePath: *execTrace,
		MutexPath: *mutexProfile, BlockPath: *blockProfile,
	}}
	res, err := runner.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabricbench: %v\n", err)
		os.Exit(1)
	}
	if *benchOut == "" {
		return
	}
	if res.BenchJSON == nil {
		fmt.Fprintf(os.Stderr, "fabricbench: -bench-out %s: -exp %s has no JSON artifact (only tables does)\n",
			*benchOut, spec.Workload.Kind)
		os.Exit(2)
	}
	if err := os.WriteFile(*benchOut, res.BenchJSON, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "fabricbench: writing %s: %v\n", *benchOut, err)
		os.Exit(1)
	}
}
