// Command scenario runs the adversarial scenario engine: seeded random
// topologies × seeded fault schedules × protocol invariant checks, with
// shrink-on-failure. Where the figure/table commands replay the paper's
// fixed experiments, this one hunts for the inputs that would falsify the
// paper's claims. It is a thin shell over pkg/fabric: flags compile into
// a fabric.Spec (workload kind "sweep"), or -spec loads one and
// explicitly set flags override it.
//
// Usage:
//
//	scenario [-spec FILE] [-seeds N] [-seed0 S] [-topo fam|all]
//	         [-faults fam|all] [-protocol arppath|flowpath|tcppath]
//	         [-j N] [-big] [-proxy] [-shards K] [-shrink] [-v]
//
// Independent scenarios of a sweep run concurrently on -j workers; each
// scenario's seed, trace and fingerprint are identical at any -j (frame
// accounting is per-network, nothing is shared between runs). -big selects
// the larger topology tier; -proxy runs every bridge with the in-switch
// ARP proxy (arming the proxy-consistency invariant); -shards runs each
// simulation itself on the sharded engine, which by construction does not
// change any result either.
//
// A failing scenario prints its minimal fault schedule and the exact
// triple to reproduce it; the exit status is nonzero.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro/internal/scenario"
	"repro/pkg/fabric"
)

func main() {
	specPath := flag.String("spec", "", "run the spec file (explicitly set flags override it)")
	seeds := flag.Int("seeds", 16, "seeds per (topology, faults) pairing")
	seed0 := flag.Int64("seed0", 1, "first seed")
	topoFlag := flag.String("topo", "all", "topology family (or 'all'): "+familyList(scenario.TopologyFamilies()))
	faultFlag := flag.String("faults", "all", "fault family (or 'all'): "+familyList(scenario.FaultFamilies()))
	jobs := flag.Int("j", runtime.GOMAXPROCS(0), "scenarios to run concurrently")
	big := flag.Bool("big", false, "larger topology tier (dozens of bridges per instance)")
	protocol := flag.String("protocol", "arppath", "protocol under test: arppath, flowpath or tcppath")
	proxy := flag.Bool("proxy", false, "enable the in-switch ARP proxy on every bridge (arppath)")
	shards := flag.Int("shards", 1, "run each simulation on K engine shards (same results, lookahead windows on one goroutine)")
	shrink := flag.Bool("shrink", true, "shrink failing fault schedules to a minimal subset")
	verbose := flag.Bool("v", false, "print every scenario, not just failures")
	flag.Parse()
	if *jobs < 1 {
		*jobs = 1
	}

	spec := fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "sweep"}}
	if *specPath != "" {
		var err error
		spec, err = fabric.LoadSpec(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			os.Exit(2)
		}
	}
	if spec.Scenario == nil {
		spec.Scenario = &fabric.ScenarioSpec{}
	}
	use := fabric.FlagOverrides(flag.CommandLine, *specPath != "")
	if use("seeds") {
		spec.Scenario.Seeds = *seeds
	}
	if use("seed0") {
		spec.Seed = *seed0
	}
	if use("topo") {
		spec.Scenario.Topologies = []string{*topoFlag}
	}
	if use("faults") {
		spec.Scenario.Faults = []string{*faultFlag}
	}
	if use("big") {
		spec.Scenario.Big = *big
	}
	if use("shards") {
		spec.Shards = *shards
	}
	if use("shrink") {
		spec.Scenario.Shrink = shrink
	}
	if use("protocol") {
		spec.Protocol.Name = *protocol
	}
	// Merge, don't replace: a spec's other protocol settings survive, and
	// -proxy=false can disable a spec-enabled proxy. The proxy is an
	// ARP-Path knob: it is only folded in for arppath runs (or when set
	// explicitly, in which case a variant's strict config decode rejects
	// it with a real error instead of silently dropping it).
	if use("proxy") && (*proxy || spec.Protocol.Name == "" || spec.Protocol.Name == "arppath") {
		if spec.Protocol.Name == "" {
			spec.Protocol.Name = "arppath"
		}
		if err := spec.Protocol.SetOption("proxy", *proxy); err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			os.Exit(2)
		}
	}

	runner := fabric.Runner{Spec: spec, Jobs: *jobs, Verbose: *verbose}
	res, err := runner.Run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
		os.Exit(2)
	}
	if res.Failures > 0 {
		os.Exit(1)
	}
}

func familyList[T ~string](fams []T) string {
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = string(f)
	}
	return strings.Join(names, "|")
}
