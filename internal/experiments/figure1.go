package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/layers"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// Figure1Result reproduces the paper's Figure 1: which port of every
// bridge locked S's address during the broadcast race (the figure's
// bubbles), the confirmed S–D path, and how long discovery took.
type Figure1Result struct {
	// Locks maps bridge name → the port (as "name[index]", peer in
	// parentheses) that locked S during the ARP Request flood.
	Locks map[string]string
	// Path is the node sequence the first data frame S→D traverses.
	Path []string
	// DiscoveryTime is S's ARP request→reply round trip — the path
	// set-up cost, which ARP-Path hides inside an exchange hosts perform
	// anyway (§2.2 "zero configuration").
	DiscoveryTime time.Duration
}

// RunFigure1 executes the discovery walkthrough on the Figure 1 topology,
// built with o (an arppath build).
func RunFigure1(o topo.Options) *Figure1Result {
	n := build(o, topo.TopologySpec{Family: "figure1"})
	defer finishNet(n)
	s, d := n.Host("S"), n.Host("D")

	res := &Figure1Result{Locks: make(map[string]string)}
	n.Engine.At(n.Now(), func() {
		start := n.Now()
		// Resolving D's address triggers exactly the ARP exchange of
		// Figure 1; hosts are unmodified (transparency).
		s.Resolve(d.IP(), func(_ layers.MAC, err error) {
			if err == nil {
				res.DiscoveryTime = n.Now() - start
			}
		})
	})
	n.RunFor(50 * time.Millisecond)

	// Read the bubbles: every bridge's entry for S.
	for _, br := range n.Bridges {
		b := br.(*core.Bridge)
		if e, ok := b.EntryFor(s.MAC()); ok {
			res.Locks[b.Name()] = fmt.Sprintf("%s (toward %s, %s)",
				e.Port, e.Port.Peer().Node().Name(), e.State)
		}
	}

	// Trace the path of a data-plane probe S→D.
	tracer := TraceEchoRequests(n.Network, s.IP(), d.IP())
	n.Engine.At(n.Now(), func() {
		s.Ping(d.IP(), 0, time.Second, func(host.PingResult) {})
	})
	n.RunFor(50 * time.Millisecond)
	res.Path = tracer.Hops()
	return res
}

// Table renders the result for terminal output.
func (r *Figure1Result) Table() *metrics.Table {
	t := metrics.NewTable("Figure 1 — ARP-Path discovery from S to D (lock positions)",
		"bridge", "port locking S")
	names := make([]string, 0, len(r.Locks))
	for name := range r.Locks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.AddRow(name, r.Locks[name])
	}
	return t
}
