package scenario

import (
	"math/rand"
	"sort"
	"strings"

	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// buildFabric draws the scenario's shape from plan at its tier and builds
// it with the scenario seed, which also seeds the engine: wiring, delays
// and race outcomes are functions of the seed alone. Proxy scenarios and
// the host-mobility family's spare jacks change no other scenario's build.
func buildFabric(cfg Config, plan *rand.Rand) *topo.Built {
	opts := topo.DefaultOptions(cfg.Protocol, cfg.Seed)
	opts.Shards = cfg.Shards
	opts.SpareJacks = cfg.Faults == FaultsHostMobility
	if cfg.Proxy {
		// The proxy is an ARP-Path knob; Options.ARPPath enforces it.
		opts.ARPPath().Proxy = true
	}
	// Draw panics on an unknown family, so Build has no error to return.
	built, _ := topo.Build(opts, topo.Draw(cfg.Topology, plan, cfg.Big))
	return built
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
