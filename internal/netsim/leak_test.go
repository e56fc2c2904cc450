// Pool-leak gate: every fabric any workload kind builds must drain to
// zero outstanding pooled-frame references. The test lives with netsim
// (whose get/put instrumentation it gates) as an external test package so
// it can drive the kinds above it in the dependency graph.
package netsim_test

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/topo"
	"repro/pkg/fabric"
)

// drained are the Specs the gate runs: one per kind, named after the
// paper row the kind runs or after the kind, at a small size where the
// kind reads one. The all kind is the six table kinds' runs in order, so
// it builds no fabric they do not.
var drained = []struct {
	name string
	spec fabric.Spec
}{
	{"figure1", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "figure1"}}},
	{"figure2", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "figure2-demo", Pings: 3}}},
	{"figure3", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "path-repair", StreamSize: 4 << 20}}},
	{"t1-properties", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "properties"}}},
	{"t2-load", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "load"}}},
	{"t3-proxy", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "proxy"}}},
	{"t4-repair", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "repair"}}},
	{"t5-lock-window", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "lockwindow"}}},
	{"t6-table-size", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "tablesize"}}},
	{"ping", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "ping", Pings: 3}}},
	{"stream", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "stream", StreamSize: 1 << 20}}},
	{"allpairs", fabric.Spec{Topology: fabric.TopologySpec{Family: "ring", N: 4}, Workload: fabric.WorkloadSpec{Kind: "allpairs"}}},
	{"matrix", fabric.Spec{Topology: fabric.TopologySpec{Family: "ring", N: 4}, Workload: fabric.WorkloadSpec{Kind: "matrix"}}},
	{"scale", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "scale", Bridges: 16}}},
	{"allpath", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "allpath", Bridges: 8, Flows: 4}}},
	{"tables", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "tables", Conversations: 64}}},
	{"sweep", fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "sweep"}, Scenario: &fabric.ScenarioSpec{
		Topologies: []string{"ring-of-rings"}, Faults: []string{"link-flaps"}, Seeds: 1}}},
}

// floodTraversal is the flood traversal of T5's ring (8 bridges, 1 ms
// links), the lock window below which its fabric may never fall silent.
const floodTraversal = 8 * time.Millisecond

// stormed names the one fabric of the gate whose links are cut: T5's
// 1 ms lock window, where a broadcast circles the ring for ever.
const stormed = "t5-lock-window"

// TestExperimentsDrainToZeroFrameRefs runs every workload kind, collects
// each fabric it builds through topo.OnBuilt, drains them all to full
// quiescence once the run is done, and asserts the pooled-frame
// population returns to the baseline: any residue is a Retain without a
// matching Release somewhere on the dataplane (netsim ownership contract,
// DESIGN.md §3). The sweep runs on one worker, because the hook
// appends from whichever goroutine builds.
func TestExperimentsDrainToZeroFrameRefs(t *testing.T) {
	// WithDefaults lists the kind table when it refuses an unknown kind.
	_, err := fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "?"}}.WithDefaults()
	_, known, _ := strings.Cut(fmt.Sprint(err), "(known: ")
	for _, kind := range strings.Split(strings.TrimSuffix(known, ")"), ", ") {
		covered := kind == "all"
		for _, d := range drained {
			covered = covered || d.spec.Workload.Kind == kind
		}
		if !covered {
			t.Errorf("workload kind %q has no drained Spec", kind)
		}
	}

	var nets []*topo.Net
	prev := topo.OnBuilt
	topo.OnBuilt = func(n *topo.Net) { nets = append(nets, n) }
	defer func() { topo.OnBuilt = prev }()

	total := 0
	for _, d := range drained {
		t.Run(d.name, func(t *testing.T) {
			base := netsim.LiveFrames()
			nets = nil
			r := fabric.Runner{Spec: d.spec, Out: io.Discard, Jobs: 1}
			if _, err := r.Run(); err != nil {
				t.Fatal(err)
			}
			if len(nets) == 0 {
				t.Fatal("built no fabric")
			}
			var cut []time.Duration // lock windows of the fabrics whose links were cut
			for i, n := range nets {
				if n.Opts.Protocol == topo.STP {
					// STP re-arms its hello timers forever, so its fabrics
					// never quiesce; they also never Retain a frame, so it
					// suffices to land whatever is in flight. Step until a
					// frame-free instant (flights last microseconds, hello
					// bursts are seconds apart).
					for i := 0; i < 5000 && n.Network.LiveFrames() != 0; i++ {
						n.RunFor(200 * time.Microsecond)
					}
				} else {
					// Every other fabric drains to silence: every queued
					// event runs (flights, repair timers, retries) and then
					// nothing may hold a frame; a forwarding loop trips Run's
					// event limit. The one known exception is an ARP-Path lock
					// window below the ring's flood traversal, which may leave
					// a broadcast circling for ever: such a fabric runs a
					// minute, and only if it is still busy does cutting every
					// link drop what is in flight so it falls silent.
					if cfg, ok := n.Opts.ProtocolConfig.(*core.Config); ok && cfg.LockTimeout < topo.Duration(floodTraversal) {
						n.RunFor(time.Minute)
						if !n.Quiescent() {
							cut = append(cut, cfg.LockTimeout.D())
							for _, l := range n.Network.Links() {
								l.SetUp(false)
							}
						}
					}
					n.Run()
				}
				if live := n.Network.LiveFrames(); live != 0 {
					t.Errorf("fabric %d (%s, %d bridges): %d frame(s) still referenced after drain",
						i, n.Opts.Protocol, len(n.Bridges), live)
				}
			}
			want := []time.Duration(nil)
			if d.name == stormed {
				want = []time.Duration{time.Millisecond}
			}
			if !slices.Equal(cut, want) {
				t.Errorf("links cut on fabrics with lock windows %v, want %v: only T5's 1 ms row storms", cut, want)
			}
			if live := netsim.LiveFrames(); live != base {
				t.Errorf("%d frame(s) still referenced after draining %d fabrics", live-base, len(nets))
			}
			total += len(nets)
		})
	}
	t.Logf("drained %d fabrics", total)
}
