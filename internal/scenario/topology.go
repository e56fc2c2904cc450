package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// TopologyFamily names a class of seeded random topologies the engine can
// draw a concrete instance from.
type TopologyFamily string

// Topology families. Each instance's shape parameters are drawn from the
// scenario's plan RNG, so one (family, seed) pair names exactly one graph.
const (
	// TopoErdosRenyi is a connected G(n,p) random graph, the shape of the
	// All-Path scalability study's sweeps.
	TopoErdosRenyi TopologyFamily = "erdos-renyi"
	// TopoRingOfRings is a hierarchical ring of rings (metro topology).
	TopoRingOfRings TopologyFamily = "ring-of-rings"
	// TopoRandomRegular is an approximately 3-regular random graph.
	TopoRandomRegular TopologyFamily = "random-regular"
	// TopoGrid is a rows×cols mesh with corner hosts.
	TopoGrid TopologyFamily = "grid"
	// TopoFatTree is a k=4 fat tree, the data-center fabric of the
	// paper's introduction.
	TopoFatTree TopologyFamily = "fat-tree"
)

// TopologyFamilies lists every family, sweep order.
func TopologyFamilies() []TopologyFamily {
	return []TopologyFamily{TopoErdosRenyi, TopoRingOfRings, TopoRandomRegular, TopoGrid, TopoFatTree}
}

// buildTopology draws the family's shape parameters from plan and builds
// the instance with the scenario seed (which also seeds the simulation
// engine, so wiring, delays and race outcomes are all functions of the
// seed alone). cfg.Shards > 1 partitions the instance onto the sharded
// engine; cfg.Big selects the larger tier — both leave the plan stream of
// the corresponding non-big draw untouched only for shards (a Big run is
// a different scenario, a sharded run of the same scenario is the same
// one). cfg.Proxy builds every bridge with the in-switch ARP proxy; the
// host-mobility family pre-cables spare jacks (neither changes any other
// scenario's build, so existing fingerprints are untouched).
func buildTopology(cfg Config, plan *rand.Rand) *topo.Built {
	f, seed, big := cfg.Topology, cfg.Seed, cfg.Big
	opts := topo.DefaultOptions(cfg.Protocol, seed)
	opts.Shards = cfg.Shards
	opts.SpareJacks = cfg.Faults == FaultsHostMobility
	if cfg.Proxy {
		// The proxy is an ARP-Path knob; Options.ARPPath enforces it.
		opts.ARPPath().Proxy = true
	}
	if big {
		switch f {
		case TopoErdosRenyi:
			n := 40 + plan.Intn(17)
			p := 0.04 + 0.06*plan.Float64()
			return topo.ErdosRenyi(opts, n, p)
		case TopoRingOfRings:
			return topo.RingOfRings(opts, 4+plan.Intn(2), 6+plan.Intn(3))
		case TopoRandomRegular:
			return topo.RandomRegular(opts, 40+2*plan.Intn(9), 3)
		case TopoGrid:
			return topo.Grid(opts, 6, 7+plan.Intn(3))
		case TopoFatTree:
			return topo.FatTree(opts, 6)
		}
	}
	switch f {
	case TopoErdosRenyi:
		n := 8 + plan.Intn(6)
		p := 0.1 + 0.2*plan.Float64()
		return topo.ErdosRenyi(opts, n, p)
	case TopoRingOfRings:
		return topo.RingOfRings(opts, 2+plan.Intn(2), 3+plan.Intn(3))
	case TopoRandomRegular:
		return topo.RandomRegular(opts, 8+2*plan.Intn(3), 3)
	case TopoGrid:
		return topo.Grid(opts, 3, 3+plan.Intn(2))
	case TopoFatTree:
		return topo.FatTree(opts, 4)
	default:
		panic(fmt.Sprintf("scenario: unknown topology family %q", f))
	}
}

// netIndex gives the engine stable integer handles into a built network:
// fault ops reference links, bridges and hosts by index into these sorted
// name lists, which is what makes an op list replayable (and shrinkable)
// against a rebuilt instance of the same scenario.
type netIndex struct {
	built     *topo.Built
	linkNames []string
	hostNames []string
	trunks    []int // indices into linkNames of bridge–bridge links

	// Host-mobility bookkeeping (SpareJacks builds). A "spare:H<i>-..."
	// link is host i's other wall jack; isSpare marks those links so trunk
	// selection and heal treat them specially, and mobile lists the hosts
	// a move op may pick.
	isSpare    []bool      // parallel to linkNames
	spareOwner map[int]int // linkNames index -> hostNames index
	homeJack   map[int]int // hostNames index -> linkNames index
	spareJack  map[int]int // hostNames index -> linkNames index
	mobile     []int       // hostNames indices with a spare jack, sorted

	// sinks marks the (host index, port) pairs a burst receiver is bound
	// on: bursts naming the same destination socket share its sink.
	sinks map[[2]int]bool
}

func newNetIndex(built *topo.Built) *netIndex {
	ix := &netIndex{
		built:      built,
		spareOwner: make(map[int]int),
		homeJack:   make(map[int]int),
		spareJack:  make(map[int]int),
		sinks:      make(map[[2]int]bool),
	}
	for name := range built.Links {
		ix.linkNames = append(ix.linkNames, name)
	}
	sort.Strings(ix.linkNames)
	for name := range built.Hosts {
		ix.hostNames = append(ix.hostNames, name)
	}
	sort.Strings(ix.hostNames)
	hostIdx := make(map[string]int, len(ix.hostNames))
	for i, name := range ix.hostNames {
		hostIdx[name] = i
	}
	ix.isSpare = make([]bool, len(ix.linkNames))
	for i, name := range ix.linkNames {
		l := built.Links[name]
		if built.IsTrunk(l) {
			ix.trunks = append(ix.trunks, i)
			continue
		}
		// Access links: tie each one to its host's index. Spare jacks are
		// named by the builder; home jacks are whichever access link the
		// host's name prefixes.
		h, isHost := hostIdx[l.A().Node().Name()]
		if !isHost {
			h, isHost = hostIdx[l.B().Node().Name()]
		}
		if !isHost {
			continue
		}
		if strings.HasPrefix(name, "spare:") {
			ix.isSpare[i] = true
			ix.spareOwner[i] = h
			ix.spareJack[h] = i
		} else {
			ix.homeJack[h] = i
		}
	}
	for h := range ix.spareJack {
		if _, ok := ix.homeJack[h]; ok {
			ix.mobile = append(ix.mobile, h)
		}
	}
	sort.Ints(ix.mobile)
	return ix
}

func (ix *netIndex) link(i int) *netsim.Link  { return ix.built.Links[ix.linkNames[i]] }
func (ix *netIndex) host(i int) *host.Host    { return ix.built.Hosts[ix.hostNames[i]] }
func (ix *netIndex) bridge(i int) topo.Bridge { return ix.built.Bridges[i] }

// partitionCut draws a seeded bisection of the bridge graph: BFS from a
// plan-chosen bridge claims half the bridges, and the cut is every trunk
// link with exactly one end inside the claimed set. The result is a list
// of linkNames indices — plain link ops, so partition schedules replay
// and shrink like any others.
func (ix *netIndex) partitionCut(plan *rand.Rand) []int {
	nb := len(ix.built.Bridges)
	if nb < 2 {
		return nil
	}
	idx := make(map[string]int, nb)
	for i, b := range ix.built.Bridges {
		idx[b.Name()] = i
	}
	adj := make([][]int, nb)
	ends := func(li int) (int, int) {
		l := ix.link(li)
		return idx[l.A().Node().Name()], idx[l.B().Node().Name()]
	}
	for _, li := range ix.trunks {
		a, b := ends(li)
		if a != b {
			adj[a] = append(adj[a], b)
			adj[b] = append(adj[b], a)
		}
	}
	target := nb / 2
	in := make([]bool, nb)
	in[plan.Intn(nb)] = true
	queue := []int{}
	for i, ok := range in {
		if ok {
			queue = append(queue, i)
		}
	}
	count := 1
	for len(queue) > 0 && count < target {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range adj[cur] {
			if !in[next] && count < target {
				in[next] = true
				count++
				queue = append(queue, next)
			}
		}
	}
	var cut []int
	for _, li := range ix.trunks {
		a, b := ends(li)
		if in[a] != in[b] {
			cut = append(cut, li)
		}
	}
	return cut
}
