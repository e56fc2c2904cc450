package scenario

import (
	"maps"
	"math/rand"
	"slices"
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
	opts.SpareJacks = family(cfg.Faults).spares
	if cfg.Proxy {
		// The proxy is an ARP-Path knob; Options.ARPPath enforces it.
		opts.ARPPath().Proxy = true
	}
	// Draw panics on an unknown family, so Build has no error to return.
	built, _ := topo.Build(opts, topo.Draw(cfg.Topology, plan, cfg.Big))
	return built
}

// Index gives stable integer handles into a built network: fault ops name
// links, bridges and hosts by index into its name lists, which makes an
// op list replayable against a rebuilt instance of the same spec. The
// batch sweep and the serving daemon check, describe and apply ops
// through it. The exported lists are read-only.
type Index struct {
	built *topo.Built
	// Links and Hosts are the sorted link and host names, Bridges the
	// bridge names in build order: index i names entity i, so two builds
	// of the same spec index identically.
	Links, Hosts, Bridges []string
	// Trunks are the Links indices of bridge–bridge links.
	Trunks []int
	// Mobile are the Hosts indices with a pre-cabled spare jack, sorted:
	// the only legal targets of OpHostMove and OpHostReturn.
	Mobile []int

	// Host-mobility bookkeeping (SpareJacks builds). A "spare:H<i>-..."
	// link is host i's other wall jack; spareOwner marks those links so
	// heal treats them specially.
	spareOwner map[int]int // Links index -> Hosts index
	homeJack   map[int]int // Hosts index -> Links index
	spareJack  map[int]int // Hosts index -> Links index

	// sinks marks the (host index, port) pairs a burst receiver is bound
	// on: bursts naming the same destination socket share its sink.
	sinks map[[2]int]bool
}

// NewIndex builds the handle table for a built topology.
func NewIndex(built *topo.Built) *Index {
	ix := &Index{
		built:      built,
		spareOwner: make(map[int]int),
		homeJack:   make(map[int]int),
		spareJack:  make(map[int]int),
		sinks:      make(map[[2]int]bool),
	}
	ix.Links, ix.Hosts = slices.Sorted(maps.Keys(built.Links)), slices.Sorted(maps.Keys(built.Hosts))
	for _, b := range built.Bridges {
		ix.Bridges = append(ix.Bridges, b.Name())
	}
	hostIdx := make(map[string]int, len(ix.Hosts))
	for i, name := range ix.Hosts {
		hostIdx[name] = i
	}
	for i, name := range ix.Links {
		l := built.Links[name]
		if built.IsTrunk(l) {
			ix.Trunks = append(ix.Trunks, i)
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
			ix.spareOwner[i] = h
			ix.spareJack[h] = i
		} else {
			ix.homeJack[h] = i
		}
	}
	for h := range ix.spareJack {
		if _, ok := ix.homeJack[h]; ok {
			ix.Mobile = append(ix.Mobile, h)
		}
	}
	slices.Sort(ix.Mobile)
	return ix
}

func (ix *Index) link(i int) *netsim.Link  { return ix.built.Links[ix.Links[i]] }
func (ix *Index) host(i int) *host.Host    { return ix.built.Hosts[ix.Hosts[i]] }
func (ix *Index) bridge(i int) topo.Bridge { return ix.built.Bridges[i] }

// PartitionCut draws a seeded bisection of the bridge graph: BFS from a
// plan-chosen bridge claims half the bridges, and the cut is every trunk
// link with exactly one end inside the claimed set. The result is a list
// of Links indices — plain link ops, so partition schedules (generated,
// or streamed at a daemon) replay, shrink and heal like any others.
func (ix *Index) PartitionCut(plan *rand.Rand) []int {
	nb := len(ix.built.Bridges)
	if nb < 2 {
		return nil
	}
	idx := make(map[string]int, nb)
	for i, name := range ix.Bridges {
		idx[name] = i
	}
	adj := make([][]int, nb)
	ends := func(li int) (int, int) {
		l := ix.link(li)
		return idx[l.A().Node().Name()], idx[l.B().Node().Name()]
	}
	for _, li := range ix.Trunks {
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
	for _, li := range ix.Trunks {
		a, b := ends(li)
		if in[a] != in[b] {
			cut = append(cut, li)
		}
	}
	return cut
}
