package topo

import (
	"fmt"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
)

// Built is a named topology: the network plus its hosts and the links the
// experiments fail by name.
type Built struct {
	*Net
	Hosts map[string]*host.Host
	Links map[string]*netsim.Link
}

// Host returns the named host, panicking if absent.
func (b *Built) Host(name string) *host.Host {
	h, ok := b.Hosts[name]
	if !ok {
		panic(fmt.Sprintf("topo: no host %q", name))
	}
	return h
}

// Link returns the named link, panicking if absent.
func (b *Built) Link(name string) *netsim.Link {
	l, ok := b.Links[name]
	if !ok {
		panic(fmt.Sprintf("topo: no link %q", name))
	}
	return l
}

// IsTrunk reports whether both ends of l are bridges of this fabric — as
// opposed to an access link, whose other end is a host or any other
// station.
func (b *Built) IsTrunk(l *netsim.Link) bool {
	_, aIsBridge := b.byName[l.A().Node().Name()]
	_, bIsBridge := b.byName[l.B().Node().Name()]
	return aIsBridge && bIsBridge
}

// Figure1 builds the 5-bridge mesh of the paper's Figure 1 with hosts S
// and D:
//
//	S—B2, B2—B1, B2—B3, B1—B3, B1—B4, B3—B5, B4—B5, B5—D
//
// All links share the default delay; the discovery walkthrough depends
// only on the wiring.
func Figure1(opts Options) *Built {
	b := NewBuilder(opts)
	s := host.New(b.Net(), "S", 1)
	d := host.New(b.Net(), "D", 2)
	var br [6]Bridge
	for i := 1; i <= 5; i++ {
		br[i] = b.AddBridge(fmt.Sprintf("B%d", i))
	}
	links := map[string]*netsim.Link{
		"S-B2":  b.Connect(s, br[2]),
		"B2-B1": b.Connect(br[2], br[1]),
		"B2-B3": b.Connect(br[2], br[3]),
		"B1-B3": b.Connect(br[1], br[3]),
		"B1-B4": b.Connect(br[1], br[4]),
		"B3-B5": b.Connect(br[3], br[5]),
		"B4-B5": b.Connect(br[4], br[5]),
		"B5-D":  b.Connect(br[5], d),
	}
	return &Built{Net: b.Build(), Hosts: map[string]*host.Host{"S": s, "D": d}, Links: links}
}

// Figure2Profile selects the link-delay profile of the Figure 2 testbed.
type Figure2Profile string

// Delay profiles for Figure2. The demo's point is that STP picks paths by
// hop cost and bridge IDs while ARP-Path races actual latency; the
// profiles differ in how much the two disagree.
const (
	// ProfileUniform gives every link 5µs: the tree path and the
	// latency-optimal path coincide.
	ProfileUniform Figure2Profile = "uniform"
	// ProfileSlowDiagonal makes the NF1—NF4 shortcut a long cable
	// (250µs). STP still prefers it (fewer hops, same per-link cost);
	// ARP-Path routes around it.
	ProfileSlowDiagonal Figure2Profile = "slow-diagonal"
	// ProfileAsymmetric mixes fast and slow links so the minimum-latency
	// path is the NF3 branch while the hop-count path is the diagonal.
	ProfileAsymmetric Figure2Profile = "asymmetric"
)

// figure2Delays holds each profile's delays of the diagonal NF1—NF4 and of
// the NF2 branch (NF1—NF2, NF2—NF4); every other link takes 5µs.
var figure2Delays = map[Figure2Profile][2]time.Duration{
	ProfileUniform:      {5 * time.Microsecond, 5 * time.Microsecond},
	ProfileSlowDiagonal: {250 * time.Microsecond, 5 * time.Microsecond},
	ProfileAsymmetric:   {100 * time.Microsecond, 50 * time.Microsecond},
}

// Figure2 builds the demo testbed of the paper's Figures 2 and 3: hosts A
// and B behind NIC bridges, four NetFPGA bridges in a redundant mesh.
//
//	A—NIC1—NF1, NF1—NF2, NF1—NF3, NF1—NF4 (diagonal), NF2—NF4,
//	NF3—NF4, NF4—NIC2—B
//
// Link delays come from the profile.
func Figure2(opts Options, profile Figure2Profile) *Built {
	mustCheck(TopologySpec{Family: "figure2", Profile: string(profile)})
	fast, diag, side := 5*time.Microsecond, figure2Delays[profile][0], figure2Delays[profile][1]
	b := NewBuilder(opts)
	a := host.New(b.Net(), "A", 1)
	hb := host.New(b.Net(), "B", 2)
	nic1 := b.AddBridge("NIC1")
	nf1 := b.AddBridge("NF1")
	nf2 := b.AddBridge("NF2")
	nf3 := b.AddBridge("NF3")
	nf4 := b.AddBridge("NF4")
	nic2 := b.AddBridge("NIC2")
	links := make(map[string]*netsim.Link, 9)
	// Cabled in this order: port indices matter for tie-breaks.
	for _, c := range []struct {
		name  string
		x, y  netsim.Node
		delay time.Duration
	}{
		{"A-NIC1", a, nic1, fast},
		{"NIC1-NF1", nic1, nf1, fast},
		{"NF1-NF2", nf1, nf2, side},
		{"NF1-NF3", nf1, nf3, fast},
		{"NF1-NF4", nf1, nf4, diag},
		{"NF2-NF4", nf2, nf4, side},
		{"NF3-NF4", nf3, nf4, fast},
		{"NF4-NIC2", nf4, nic2, fast},
		{"NIC2-B", nic2, hb, fast},
	} {
		links[c.name] = b.ConnectDelay(c.x, c.y, c.delay)
	}
	return &Built{Net: b.Build(), Hosts: map[string]*host.Host{"A": a, "B": hb}, Links: links}
}

// Line builds n bridges in a row with a host at each end.
func Line(opts Options, n int) *Built {
	mustCheck(TopologySpec{Family: "line", N: n})
	b := NewBuilder(opts)
	h1 := host.New(b.Net(), "H1", 1)
	h2 := host.New(b.Net(), "H2", 2)
	links := make(map[string]*netsim.Link)
	var prev Bridge
	for i := 1; i <= n; i++ {
		br := b.AddBridge(fmt.Sprintf("S%d", i))
		if prev != nil {
			links[fmt.Sprintf("S%d-S%d", i-1, i)] = b.Connect(prev, br)
		}
		prev = br
	}
	links["H1-S1"] = b.Connect(h1, b.Net().NodeByName("S1"))
	links[fmt.Sprintf("S%d-H2", n)] = b.Connect(prev, h2)
	return &Built{Net: b.Build(), Hosts: map[string]*host.Host{"H1": h1, "H2": h2}, Links: links}
}

// Ring builds n bridges in a cycle, each with one attached host H<i>.
func Ring(opts Options, n int) *Built {
	mustCheck(TopologySpec{Family: "ring", N: n})
	b := NewBuilder(opts)
	hosts := make(map[string]*host.Host, n)
	links := make(map[string]*netsim.Link)
	brs := make([]Bridge, n)
	for i := range brs {
		brs[i] = b.AddBridge(fmt.Sprintf("S%d", i+1))
	}
	for i := range brs {
		j := (i + 1) % n
		links[fmt.Sprintf("S%d-S%d", i+1, j+1)] = b.Connect(brs[i], brs[j])
	}
	for i := range brs {
		h := host.New(b.Net(), fmt.Sprintf("H%d", i+1), i+1)
		hosts[h.Name()] = h
		links[fmt.Sprintf("H%d-S%d", i+1, i+1)] = b.Connect(h, brs[i])
	}
	return &Built{Net: b.Build(), Hosts: hosts, Links: links}
}

// Grid builds a rows×cols bridge mesh with hosts on the four corners.
func Grid(opts Options, rows, cols int) *Built {
	mustCheck(TopologySpec{Family: "grid", Rows: rows, Cols: cols})
	b := NewBuilder(opts)
	brs := make([][]Bridge, rows)
	links := make(map[string]*netsim.Link)
	for r := range brs {
		brs[r] = make([]Bridge, cols)
		for c := range brs[r] {
			brs[r][c] = b.AddBridge(fmt.Sprintf("S%d%d", r+1, c+1))
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				links[fmt.Sprintf("S%d%d-S%d%d", r+1, c+1, r+1, c+2)] = b.Connect(brs[r][c], brs[r][c+1])
			}
			if r+1 < rows {
				links[fmt.Sprintf("S%d%d-S%d%d", r+1, c+1, r+2, c+1)] = b.Connect(brs[r][c], brs[r+1][c])
			}
		}
	}
	hosts := make(map[string]*host.Host)
	corner := func(name string, id int, br Bridge) {
		h := host.New(b.Net(), name, id)
		hosts[name] = h
		links[name+"-edge"] = b.Connect(h, br)
	}
	corner("H1", 1, brs[0][0])
	corner("H2", 2, brs[0][cols-1])
	corner("H3", 3, brs[rows-1][0])
	corner("H4", 4, brs[rows-1][cols-1])
	return &Built{Net: b.Build(), Hosts: hosts, Links: links}
}

// FatTree builds a k-ary fat tree (k even): k pods of k/2 edge and k/2
// aggregation switches, (k/2)² cores, and (k²·k/4) hosts, the data-center
// fabric the paper's introduction motivates ([4]).
func FatTree(opts Options, k int) *Built {
	mustCheck(TopologySpec{Family: "fattree", N: k})
	b := NewBuilder(opts)
	half := k / 2
	links := make(map[string]*netsim.Link)
	hosts := make(map[string]*host.Host)

	cores := make([]Bridge, half*half)
	for i := range cores {
		cores[i] = b.AddBridge(fmt.Sprintf("C%d", i+1))
	}
	hostID := 0
	for p := 0; p < k; p++ {
		aggs := make([]Bridge, half)
		edges := make([]Bridge, half)
		for i := 0; i < half; i++ {
			aggs[i] = b.AddBridge(fmt.Sprintf("A%d_%d", p+1, i+1))
			edges[i] = b.AddBridge(fmt.Sprintf("E%d_%d", p+1, i+1))
		}
		for ai, agg := range aggs {
			for _, edge := range edges {
				links[fmt.Sprintf("%s-%s", agg.Name(), edge.Name())] = b.Connect(agg, edge)
			}
			for ci := 0; ci < half; ci++ {
				core := cores[ai*half+ci]
				links[fmt.Sprintf("%s-%s", core.Name(), agg.Name())] = b.Connect(core, agg)
			}
		}
		for _, edge := range edges {
			for hi := 0; hi < half; hi++ {
				hostID++
				h := host.New(b.Net(), fmt.Sprintf("H%d", hostID), hostID)
				hosts[h.Name()] = h
				links[fmt.Sprintf("%s-%s", h.Name(), edge.Name())] = b.Connect(h, edge)
			}
		}
	}
	return &Built{Net: b.Build(), Hosts: hosts, Links: links}
}

// Random builds a connected random multigraph of n bridges (spanning tree
// plus extra random edges) with one host per bridge. Delays are uniform in
// [1µs, 50µs). The build's seed fully determines the topology.
func Random(opts Options, n, extraEdges int) *Built {
	mustCheck(TopologySpec{Family: "random", N: n, ExtraEdges: extraEdges})
	b := NewBuilder(opts)
	rng := b.Rand()
	brs := make([]Bridge, n)
	for i := range brs {
		brs[i] = b.AddBridge(fmt.Sprintf("S%d", i+1))
	}
	links := make(map[string]*netsim.Link)
	edge := 0
	add := func(x, y Bridge) {
		edge++
		links[fmt.Sprintf("L%d:%s-%s", edge, x.Name(), y.Name())] = b.ConnectDelay(x, y, familyDelay(b))
	}
	for i := 1; i < n; i++ {
		add(brs[i], brs[rng.Intn(i)])
	}
	for e := 0; e < extraEdges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			add(brs[i], brs[j])
		}
	}
	hosts := make(map[string]*host.Host, n)
	for i, br := range brs {
		h := host.New(b.Net(), fmt.Sprintf("H%d", i+1), i+1)
		hosts[h.Name()] = h
		links[fmt.Sprintf("H%d-%s", i+1, br.Name())] = b.ConnectDelay(h, br, time.Microsecond)
	}
	return &Built{Net: b.Build(), Hosts: hosts, Links: links}
}
