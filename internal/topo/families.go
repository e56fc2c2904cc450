package topo

import (
	"fmt"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
)

// This file holds the seeded random topology families the scenario engine
// sweeps (beyond the paper's fixed figures): Erdős–Rényi graphs,
// rings-of-rings and near-regular random graphs. All of them attach one
// host per bridge, draw every random choice from the build's deterministic
// RNG (the seed fully determines the wiring and the delays), and are
// guaranteed connected so "eventual delivery" is a meaningful invariant.

// familyDelay draws a per-link propagation delay in [1µs, 50µs) for the
// seeded families and Random, so race outcomes differ link to link.
func familyDelay(b *Builder) time.Duration {
	return time.Duration(1+b.Rand().Intn(49)) * time.Microsecond
}

// attachHosts gives every bridge one host (H<i> on bridge i) over a fast
// uniform access link and returns the host map. With Options.SpareJacks
// each host is additionally pre-cabled to the next bridge over an
// initially-down link named "spare:H<i>-<bridge>" — the other wall jack a
// host-mobility schedule moves the station to (the cabling exists from
// the start so a sharded build partitions it like any other link; only
// SetUp toggles at fault time).
func attachHosts(b *Builder, brs []Bridge, links map[string]*netsim.Link) map[string]*host.Host {
	hosts := make(map[string]*host.Host, len(brs))
	for i, br := range brs {
		h := host.New(b.Net(), fmt.Sprintf("H%d", i+1), i+1)
		hosts[h.Name()] = h
		links[fmt.Sprintf("H%d-%s", i+1, br.Name())] = b.ConnectDelay(h, br, time.Microsecond)
		if b.net.Opts.SpareJacks {
			alt := brs[(i+1)%len(brs)]
			spare := b.ConnectDelay(h, alt, time.Microsecond)
			spare.SetUp(false)
			links[fmt.Sprintf("spare:H%d-%s", i+1, alt.Name())] = spare
		}
	}
	return hosts
}

// ErdosRenyi builds a connected G(n, p) graph of n bridges: every bridge
// pair is linked independently with probability p, and a uniform random
// spanning tree is unioned in so the graph is connected at any p (the
// sparse regimes are exactly where ARP-Path's repair gets interesting).
// One host hangs off each bridge.
func ErdosRenyi(opts Options, n int, p float64) *Built {
	mustCheck(TopologySpec{Family: "erdos-renyi", N: n, P: p})
	b := NewBuilder(opts)
	rng := b.Rand()
	brs := make([]Bridge, n)
	for i := range brs {
		brs[i] = b.AddBridge(fmt.Sprintf("S%d", i+1))
	}
	links := make(map[string]*netsim.Link)
	connect := func(i, j int) {
		links[fmt.Sprintf("%s-%s", brs[i].Name(), brs[j].Name())] = b.ConnectDelay(brs[i], brs[j], familyDelay(b))
	}
	// Random attachment tree first (connectivity), then the ER coin flips
	// over the remaining pairs.
	inTree := make(map[[2]int]bool, n-1)
	for i := 1; i < n; i++ {
		j := rng.Intn(i)
		inTree[[2]int{j, i}] = true
		connect(j, i)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !inTree[[2]int{i, j}] && rng.Float64() < p {
				connect(i, j)
			}
		}
	}
	hosts := attachHosts(b, brs, links)
	return &Built{Net: b.Build(), Hosts: hosts, Links: links}
}

// RingOfRings builds rings sub-rings of size bridges each, with the first
// bridge of every sub-ring joined into an outer ring — a hierarchical
// metro-style topology whose every frame has exactly two disjoint ways
// around each level. Bridges are named R<i>S<j>; one host per bridge.
func RingOfRings(opts Options, rings, size int) *Built {
	mustCheck(TopologySpec{Family: "ring-of-rings", Rings: rings, RingSize: size})
	b := NewBuilder(opts)
	brs := make([]Bridge, 0, rings*size)
	gateways := make([]Bridge, rings)
	links := make(map[string]*netsim.Link)
	connect := func(x, y Bridge) {
		links[fmt.Sprintf("%s-%s", x.Name(), y.Name())] = b.ConnectDelay(x, y, familyDelay(b))
	}
	for r := 0; r < rings; r++ {
		ring := make([]Bridge, size)
		for s := 0; s < size; s++ {
			ring[s] = b.AddBridge(fmt.Sprintf("R%dS%d", r+1, s+1))
		}
		for s := range ring {
			connect(ring[s], ring[(s+1)%size])
		}
		gateways[r] = ring[0]
		brs = append(brs, ring...)
	}
	for r := range gateways {
		connect(gateways[r], gateways[(r+1)%rings])
	}
	hosts := attachHosts(b, brs, links)
	return &Built{Net: b.Build(), Hosts: hosts, Links: links}
}

// RandomRegular builds an approximately d-regular connected random graph
// of n bridges: a Hamiltonian ring (degree 2, connectivity for free) plus
// d−2 random perfect matchings. Matchings may occasionally duplicate an
// existing edge; netsim supports parallel links and ARP-Path must treat
// them as hairpins, so the duplicates are a feature of the family, not a
// defect. n must be even for the matchings to pair up; d ≥ 2.
func RandomRegular(opts Options, n, d int) *Built {
	mustCheck(TopologySpec{Family: "random-regular", N: n, Degree: d})
	b := NewBuilder(opts)
	rng := b.Rand()
	brs := make([]Bridge, n)
	for i := range brs {
		brs[i] = b.AddBridge(fmt.Sprintf("S%d", i+1))
	}
	links := make(map[string]*netsim.Link)
	edge := 0
	connect := func(i, j int) {
		edge++
		links[fmt.Sprintf("L%d:%s-%s", edge, brs[i].Name(), brs[j].Name())] = b.ConnectDelay(brs[i], brs[j], familyDelay(b))
	}
	for i := 0; i < n; i++ {
		connect(i, (i+1)%n)
	}
	perm := make([]int, n)
	for m := 2; m < d; m++ {
		for i := range perm {
			perm[i] = i
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for i := 0; i < n; i += 2 {
			connect(perm[i], perm[i+1])
		}
	}
	hosts := attachHosts(b, brs, links)
	return &Built{Net: b.Build(), Hosts: hosts, Links: links}
}
