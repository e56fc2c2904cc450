package fabric

import (
	"fmt"
	"sort"

	"repro/internal/host/app"
	"repro/internal/topo"
)

// TopologyBuilder turns a (defaulted) TopologySpec into a built fabric.
type TopologyBuilder func(opts Options, t TopologySpec) *Built

var topologyFamilies = map[string]TopologyBuilder{}

// RegisterTopology makes a topology family buildable from every Spec
// naming it. The in-tree families register in init(); it panics on
// duplicates.
func RegisterTopology(name string, build TopologyBuilder) {
	if name == "" || build == nil {
		panic("fabric: RegisterTopology with empty name or nil builder")
	}
	if _, dup := topologyFamilies[name]; dup {
		panic(fmt.Sprintf("fabric: topology family %q registered twice", name))
	}
	topologyFamilies[name] = build
}

// TopologyFamilies lists every registered family name, sorted.
func TopologyFamilies() []string {
	names := make([]string, 0, len(topologyFamilies))
	for name := range topologyFamilies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// BuildTopology builds the Spec's topology through the family table.
func BuildTopology(opts Options, t TopologySpec) (*Built, error) {
	build, ok := topologyFamilies[t.Family]
	if !ok {
		return nil, fmt.Errorf("fabric: unknown topology family %q (registered: %v)", t.Family, TopologyFamilies())
	}
	return build(opts, t), nil
}

func defaultStreamSize() int { return app.DefaultStreamConfig().Size }

func init() {
	RegisterTopology("figure1", func(opts Options, _ TopologySpec) *Built {
		return topo.Figure1(opts)
	})
	RegisterTopology("figure2", func(opts Options, t TopologySpec) *Built {
		return topo.Figure2(opts, topo.Figure2Profile(t.Profile))
	})
	RegisterTopology("line", func(opts Options, t TopologySpec) *Built {
		return topo.Line(opts, t.N)
	})
	RegisterTopology("ring", func(opts Options, t TopologySpec) *Built {
		return topo.Ring(opts, t.N)
	})
	RegisterTopology("grid", func(opts Options, t TopologySpec) *Built {
		rows, cols := t.gridDims()
		return topo.Grid(opts, rows, cols)
	})
	RegisterTopology("fattree", func(opts Options, t TopologySpec) *Built {
		return topo.FatTree(opts, t.N)
	})
	RegisterTopology("random", func(opts Options, t TopologySpec) *Built {
		extra := t.ExtraEdges
		if extra == 0 {
			extra = t.N
		}
		return topo.Random(opts, t.N, extra)
	})
	RegisterTopology("erdos-renyi", func(opts Options, t TopologySpec) *Built {
		return topo.ErdosRenyi(opts, t.N, t.P)
	})
	RegisterTopology("ring-of-rings", func(opts Options, t TopologySpec) *Built {
		return topo.RingOfRings(opts, t.Rings, t.RingSize)
	})
	RegisterTopology("random-regular", func(opts Options, t TopologySpec) *Built {
		return topo.RandomRegular(opts, t.N, t.Degree)
	})
}
