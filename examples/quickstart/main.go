// Quickstart: the paper's Figure 1 walkthrough in ~50 lines, on the SDK
// (pkg/fabric) every cmd uses: a Spec names the fabric, Options compiles
// it, BuildTopology builds it.
//
// Host S resolves host D's address across a five-bridge mesh. The flooded
// ARP Request races through the loops; each bridge locks S's address to
// the port where the first copy arrived (the figure's bubbles); the ARP
// Reply rides the locked chain back and confirms the minimum-latency
// path. No spanning tree, no routing protocol, no configuration.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"repro/pkg/fabric"
)

func main() {
	// The Figure 1 topology: S—B2; B2—B1, B2—B3; B1—B3; B1—B4; B3—B5;
	// B4—B5; B5—D. A bare Spec defaults to seed 1 and ARP-Path bridges;
	// examples/specs/quickstart.json is the same fabric as a spec file.
	spec, err := fabric.Spec{Topology: fabric.TopologySpec{Family: "figure1"}}.WithDefaults()
	if err != nil {
		log.Fatal(err)
	}
	opts, err := spec.Options()
	if err != nil {
		log.Fatal(err)
	}
	n, err := fabric.BuildTopology(opts, spec.Topology)
	if err != nil {
		log.Fatal(err)
	}
	s, d := n.Host("S"), n.Host("D")

	// One ping: the ARP exchange that precedes it is the discovery.
	n.Engine.At(n.Now(), func() {
		s.Ping(d.IP(), 56, time.Second, func(r fabric.PingResult) {
			fmt.Printf("S -> D ping: rtt=%v (includes ARP + path discovery)\n\n", r.RTT)
		})
	})
	n.RunFor(100 * time.Millisecond)

	// Read the bubbles of Figure 1: where each bridge locked S.
	fmt.Println("Figure 1 lock positions (bridge: port locking S, state):")
	for _, name := range []string{"B1", "B2", "B3", "B4", "B5"} {
		b := n.ARPPathBridge(name)
		if e, ok := b.EntryFor(s.MAC()); ok {
			fmt.Printf("  %s: %v toward %s (%s)\n",
				name, e.Port, e.Port.Peer().Node().Name(), e.State)
		} else {
			fmt.Printf("  %s: (lock expired — off the confirmed path)\n", name)
		}
	}

	// A second ping rides the established path: no flooding this time.
	n.Engine.At(n.Now(), func() {
		s.Ping(d.IP(), 56, time.Second, func(r fabric.PingResult) {
			fmt.Printf("\nestablished-path ping: rtt=%v\n", r.RTT)
		})
	})
	n.RunFor(100 * time.Millisecond)
}
