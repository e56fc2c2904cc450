// Command arppath-sim is the general-purpose simulator CLI: pick a
// topology, a bridging protocol and a workload, and it prints what
// happened. The -trace flag streams a tcpdump-style view of every frame.
// It is a thin shell over pkg/fabric: flags compile into a fabric.Spec,
// or -spec loads one and explicitly set flags override it. The workload
// is any kind the Runner knows, so the paper's two demos run here too:
// -workload figure2-demo (Figure 2, ARP-Path vs STP latency) and
// -workload path-repair (Figure 3, streaming across link failures), or
// their tuned fixtures examples/specs/{arpvstp,pathrepair}.json.
//
// Usage:
//
//	arppath-sim [-spec FILE]
//	            [-topo figure1|figure2|line|ring|grid|fattree|random]
//	            [-bridge arppath|stp|learning|flowpath|tcppath]
//	            [-workload ping|stream|allpairs|matrix|figure2-demo|path-repair]
//	            [-n N] [-seed N] [-trace] [-proxy] [-csv] [-graphs]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/pkg/fabric"
)

func main() {
	specPath := flag.String("spec", "", "run the spec file (explicitly set flags override it)")
	topoName := flag.String("topo", "figure2", "topology: figure1, figure2, line, ring, grid, fattree, random")
	bridgeProto := flag.String("bridge", "arppath", "bridging protocol: arppath, stp, learning, flowpath, tcppath")
	workload := flag.String("workload", "ping", "workload: ping, stream, allpairs, matrix, figure2-demo, path-repair")
	n := flag.Int("n", 4, "topology size parameter (bridges, ring size, fat-tree k, ...)")
	seed := flag.Int64("seed", 1, "simulation seed")
	traceFlag := flag.Bool("trace", false, "stream every frame event to stderr")
	proxy := flag.Bool("proxy", false, "enable the in-switch ARP proxy (arppath only)")
	csv := flag.Bool("csv", false, "emit tables as CSV instead of aligned text")
	graphs := flag.Bool("graphs", true, "render the figure2-demo per-scenario latency graphs")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "arppath-sim: unexpected arguments")
		flag.Usage()
		os.Exit(2)
	}

	spec := fabric.Spec{}
	if *specPath != "" {
		var err error
		spec, err = fabric.LoadSpec(*specPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "arppath-sim: %v\n", err)
			os.Exit(2)
		}
	}
	use := fabric.FlagOverrides(flag.CommandLine, *specPath != "")
	if use("topo") {
		spec.Topology.Family = *topoName
	}
	if use("n") {
		spec.Topology.N = *n
	}
	if use("bridge") {
		spec.Protocol.Name = *bridgeProto
	}
	if use("workload") {
		spec.Workload.Kind = *workload
	}
	if use("seed") {
		spec.Seed = *seed
	}
	// Proxy is an arppath knob; merge it into the config extension so a
	// spec's other settings (lock timeouts, ...) survive the override.
	if use("proxy") && (spec.Protocol.Name == "" || spec.Protocol.Name == "arppath") {
		if err := spec.Protocol.SetOption("proxy", *proxy); err != nil {
			fmt.Fprintf(os.Stderr, "arppath-sim: %v\n", err)
			os.Exit(2)
		}
	}

	runner := fabric.Runner{Spec: spec, CSV: *csv, Graphs: *graphs}
	if *traceFlag {
		runner.TraceTo = os.Stderr
	}
	if _, err := runner.Run(); err != nil {
		if errors.Is(err, fabric.ErrIncomplete) {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "arppath-sim: %v\n", err)
		os.Exit(2)
	}
}
