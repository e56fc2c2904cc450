// Command fabricbench runs the extended experiments derived from the
// paper's §2.2 claims (DESIGN.md T1–T4): the loop-freedom/no-blocking
// properties table, load distribution on a fat tree, ARP-proxy broadcast
// suppression, the repair ablation, and the scaling experiment for the
// sharded parallel engine (DESIGN.md §8). It is a thin shell over
// pkg/fabric: flags compile into a fabric.Spec, or -spec loads one and
// explicitly set flags override it.
//
// Usage:
//
//	fabricbench [-spec FILE]
//	            [-exp properties|load|proxy|repair|lockwindow|tablesize|forward|scale|allpath|tables|all]
//	            [-seed N] [-shards K] [-procs LIST] [-csv] [-bench-out FILE]
//	            [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
//	            [-mutexprofile FILE] [-blockprofile FILE]
//
// The profiling flags record pprof/runtime-trace artifacts around the
// workload (DESIGN.md §11 documents the recipe); they change nothing in
// any table, figure or fingerprint. -mutexprofile and -blockprofile
// capture lock contention and blocking waits — the collectors that show
// whether the shard coordinator is stalling on its helpers.
//
// -shards runs every experiment's simulation on K parallel engine shards;
// all figure/table outputs are byte-identical for any K (only wall-clock
// rates change). -exp scale sweeps shard counts 1..K on a 256-bridge
// fabric and, with -bench-out, writes the wall-clock figures as a JSON
// artifact. -procs repeats that sweep at each GOMAXPROCS in a comma list
// ("1,2,4"), or at every power of two up to the machine's cores with
// -procs auto, producing the multi-core speedup matrix; the run fails —
// after writing the artifact — when a pass with GOMAXPROCS >= 4 is not at
// least 2x faster at 4 shards than at 1 (DESIGN.md §8).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/pkg/fabric"
)

// parseProcs turns the -procs flag into a GOMAXPROCS sweep: an explicit
// comma list, or "auto" — powers of two up to the machine's core count
// (always including 1), so a 1-core runner degrades to a single pass.
func parseProcs(s string) ([]int, error) {
	if s == "auto" {
		cores := runtime.NumCPU()
		var list []int
		for p := 1; p <= cores; p *= 2 {
			list = append(list, p)
		}
		return list, nil
	}
	var list []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad -procs value %q", part)
		}
		list = append(list, p)
	}
	return list, nil
}

func main() {
	specPath := flag.String("spec", "", "run the spec file (explicitly set flags override it)")
	exp := flag.String("exp", "all", "experiment: properties, load, proxy, repair, lockwindow, tablesize, forward, scale, allpath, tables or all")
	seed := flag.Int64("seed", 1, "simulation seed")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned text")
	frames := flag.Int("frames", 50_000, "data frames to pump in -exp forward")
	shards := flag.Int("shards", 1, "run simulations on K parallel engine shards")
	bridges := flag.Int("bridges", 0, "fabric size override for -exp scale / -exp allpath (0 = the experiment's default)")
	conversations := flag.Int("conversations", 0, "conversation count override for -exp tables (0 = the spec/experiment default)")
	benchOut := flag.String("bench-out", "", "write the -exp scale / -exp tables JSON artifact to this file")
	procs := flag.String("procs", "", "GOMAXPROCS sweep for -exp scale: a comma list like 1,2,4, or auto (powers of two up to the machine's cores)")
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
	if use("procs") && *procs != "" {
		list, err := parseProcs(*procs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fabricbench: %v\n", err)
			os.Exit(2)
		}
		spec.Procs = list
	}

	switch spec.Workload.Kind {
	case "properties", "load", "proxy", "repair", "lockwindow", "tablesize", "forward", "scale", "allpath", "tables", "all":
	default:
		fmt.Fprintf(os.Stderr, "fabricbench: unknown experiment %q\n", spec.Workload.Kind)
		os.Exit(2)
	}

	runner := fabric.Runner{Spec: spec, CSV: *csv, Profile: fabric.ProfileOptions{
		CPUPath: *cpuProfile, MemPath: *memProfile, TracePath: *execTrace,
		MutexPath: *mutexProfile, BlockPath: *blockProfile,
	}}
	res, err := runner.Run()
	// Written before the error is reported: a scale run that fails its
	// speedup verdict still hands over the matrix that failed it.
	if *benchOut != "" && res != nil && res.BenchJSON != nil {
		if werr := os.WriteFile(*benchOut, res.BenchJSON, 0o644); werr != nil {
			fmt.Fprintf(os.Stderr, "fabricbench: writing %s: %v\n", *benchOut, werr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fabricbench: %v\n", err)
		os.Exit(1)
	}
	if *benchOut != "" && res.BenchJSON == nil {
		fmt.Fprintf(os.Stderr, "fabricbench: -bench-out %s: -exp %s has no JSON artifact (scale and tables do)\n",
			*benchOut, spec.Workload.Kind)
		os.Exit(2)
	}
}
