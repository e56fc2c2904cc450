// Package topo builds the networks the experiments run on: the paper's
// Figure 1 and Figure 2/3 topologies, plus parametric fabrics (line, ring,
// grid, fat-tree, seeded random graphs) for the extended experiments. A
// Builder assembles hosts, bridges of a selectable protocol, and links,
// then starts every bridge.
//
// Protocols are pluggable: the builder holds no protocol knowledge beyond
// the registry (Register). ARP-Path, STP and the plain learning switch
// register themselves in this package's init; variants register from
// their own packages (or through pkg/fabric, the public surface).
package topo

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/stp"
	"repro/internal/tables"
)

// Protocol selects the bridging protocol a topology is built with. The
// set of valid values is the protocol registry (Protocols lists it).
type Protocol string

// In-tree protocols, registered in init().
const (
	// ARPPath is the paper's contribution (internal/core).
	ARPPath Protocol = "arppath"
	// STP is the 802.1D baseline the demo compares against.
	STP Protocol = "stp"
	// Learning is a plain learning switch (loop-free topologies only).
	Learning Protocol = "learning"
)

// Options configures a build.
type Options struct {
	// Protocol selects the bridge implementation by registry name.
	Protocol Protocol
	// ProtocolConfig is the per-protocol configuration: a pointer to the
	// protocol's config type (*core.Config for arppath, *stp.Timers for
	// stp, *struct{} for learning, which has no keys, or whatever a
	// registered variant declares). nil selects the registered defaults;
	// unset (zero) fields of a partially filled config are defaulted
	// field-wise by the builder.
	ProtocolConfig any
	// Seed feeds the simulation engine.
	Seed int64
	// Link is the default link configuration; topology constructors
	// override Delay per link where the scenario calls for it. Zero fields
	// default field-wise.
	Link netsim.LinkConfig
	// WarmUp is how long to run the fabric before the experiment starts
	// (0 = the protocol's registered convergence budget).
	WarmUp time.Duration
	// Shards splits the simulation across that many engine shards, run in
	// lookahead windows on the calling goroutine: the bridge graph is
	// partitioned by PartitionAssign and the run is synchronized by
	// netsim's conservative coordinator. 0 or 1 keeps the classic single-engine run. Results are
	// bit-identical for every value — see DESIGN.md §8.
	Shards int
	// SpareJacks pre-cables every host of the host-per-bridge families
	// (ErdosRenyi, RingOfRings, RandomRegular) with a second, initially
	// down access link to the next bridge — the "other wall jack" the
	// scenario engine's host-mobility schedules move stations to.
	SpareJacks bool
	// Observers watch the fabric: Build calls each, in order, after
	// partitioning and before any bridge starts, so a tap attached there
	// sees the whole trace, warm-up HELLOs included. They must not change
	// a result.
	Observers []func(*Net)
}

// DefaultOptions returns a gigabit build of the given protocol with its
// registered default configuration.
func DefaultOptions(p Protocol, seed int64) Options {
	def, cfg := mustResolve(p, nil)
	return Options{
		Protocol:       p,
		ProtocolConfig: cfg,
		Seed:           seed,
		Link:           netsim.DefaultLinkConfig(),
		WarmUp:         def.WarmUp(cfg),
	}
}

// mustResolve is the imperative path into the registry: an unknown name
// or a config the protocol's Check rejects is programmer misuse here, so
// both panic (the spec path, DecodeProtocol, returns them as errors).
func mustResolve(p Protocol, cfg any) (Definition, any) {
	def, ok := LookupProtocol(p)
	if !ok {
		panic(fmt.Sprintf("topo: unknown protocol %q (registered: %v)", p, Protocols()))
	}
	cfg, err := def.Resolve(cfg)
	if err != nil {
		panic(fmt.Sprintf("topo: protocol %q config: %v", p, err))
	}
	return def, cfg
}

// ARPPath returns the build's ARP-Path config for tuning, allocating the
// defaults on first use. It panics when the build is not an arppath one —
// per-protocol knobs only make sense for their own protocol.
func (o *Options) ARPPath() *core.Config {
	if o.Protocol != ARPPath {
		panic(fmt.Sprintf("topo: Options.ARPPath on a %q build", o.Protocol))
	}
	if o.ProtocolConfig == nil {
		c := core.DefaultConfig()
		o.ProtocolConfig = &c
	}
	return o.ProtocolConfig.(*core.Config)
}

// STP returns the build's STP timers for tuning, allocating the defaults
// on first use. It panics when the build is not an stp one.
func (o *Options) STP() *stp.Timers {
	if o.Protocol != STP {
		panic(fmt.Sprintf("topo: Options.STP on a %q build", o.Protocol))
	}
	if o.ProtocolConfig == nil {
		t := stp.DefaultTimers()
		o.ProtocolConfig = &t
	}
	return o.ProtocolConfig.(*stp.Timers)
}

// Bridge is the protocol-independent view of a built bridge.
type Bridge interface {
	netsim.Node
	Start()
	Ports() []*netsim.Port
	// PathTables lists the bridge's forwarding tables; index 0 is the one
	// a configured capacity bound applies to.
	PathTables() []tables.View
}

// Net is a built network: the simulation plus name-indexed hosts and
// bridges.
type Net struct {
	*netsim.Network
	Opts Options
	// Topology is the family and size the fabric was built from (Build
	// sets it; zero for a fabric a Builder assembled by hand).
	Topology TopologySpec
	Bridges  []Bridge
	byName   map[string]Bridge
}

// Bridge returns the named bridge, panicking if absent (topologies are
// static; a missing name is a programming error).
func (n *Net) Bridge(name string) Bridge {
	b, ok := n.byName[name]
	if !ok {
		panic(fmt.Sprintf("topo: no bridge %q", name))
	}
	return b
}

// ARPPathBridge returns the named bridge as an ARP-Path bridge.
func (n *Net) ARPPathBridge(name string) *core.Bridge { return n.Bridge(name).(*core.Bridge) }

// OnBuilt, when non-nil, is called by Build after Options.Observers. It
// is process-global state kept for bench/perf, which sets it;
// everything else passes Options.Observers.
var OnBuilt func(*Net)

// Builder incrementally assembles a network.
type Builder struct {
	net    *Net
	def    Definition
	nextID int
}

// NewBuilder starts a build with the given options. Zero-value fields
// default field-wise: a partially filled protocol config or link config
// keeps what the caller set and inherits the rest (the whole-struct
// clobber of earlier revisions is gone).
func NewBuilder(opts Options) *Builder {
	if opts.Protocol == "" {
		opts.Protocol = ARPPath
	}
	def, cfg := mustResolve(opts.Protocol, opts.ProtocolConfig)
	opts.ProtocolConfig = cfg
	d := netsim.DefaultLinkConfig()
	if opts.Link.Rate == 0 {
		opts.Link.Rate = d.Rate
	}
	if opts.Link.Delay == 0 {
		opts.Link.Delay = d.Delay
	}
	if opts.Link.Queue == 0 {
		opts.Link.Queue = d.Queue
	}
	if opts.WarmUp == 0 {
		opts.WarmUp = def.WarmUp(opts.ProtocolConfig)
	}
	return &Builder{
		def: def,
		net: &Net{
			Network: netsim.NewNetwork(opts.Seed),
			Opts:    opts,
			byName:  make(map[string]Bridge),
		},
	}
}

// AddBridge creates a bridge of the configured protocol through the
// registry.
func (b *Builder) AddBridge(name string) Bridge {
	b.nextID++
	br := b.def.New(b.net.Network, name, b.nextID, b.net.Opts.ProtocolConfig)
	b.net.Network.AddNode(br)
	b.net.Bridges = append(b.net.Bridges, br)
	b.net.byName[name] = br
	return br
}

// Connect cables two nodes with the default link configuration.
func (b *Builder) Connect(x, y netsim.Node) *netsim.Link {
	return b.net.Connect(x, y, b.net.Opts.Link)
}

// ConnectDelay cables two nodes with a specific propagation delay.
func (b *Builder) ConnectDelay(x, y netsim.Node, delay time.Duration) *netsim.Link {
	return b.net.Connect(x, y, b.net.Opts.Link.WithDelay(delay))
}

// Build partitions the fabric when sharding is requested, then starts
// every bridge and runs the warm-up period. Partitioning must precede
// Start: the first HELLO is already simulation traffic.
func (b *Builder) Build() *Net {
	if k := b.net.Opts.Shards; k > 1 {
		assign := PartitionAssign(b.net, k)
		// The partitioner clamps k (never more shards than bridges, and
		// sparse graphs may seed fewer); size the engine pool to what was
		// actually assigned so no empty shard ever joins a window.
		eff := 1
		for _, s := range assign {
			if s+1 > eff {
				eff = s + 1
			}
		}
		b.net.Network.Partition(eff, func(nd netsim.Node) int { return assign[nd.Name()] })
	}
	for _, observe := range b.net.Opts.Observers {
		observe(b.net)
	}
	if OnBuilt != nil {
		OnBuilt(b.net)
	}
	for _, br := range b.net.Bridges {
		br.Start()
	}
	b.net.RunFor(b.net.Opts.WarmUp)
	return b.net
}

// Rand returns the build's deterministic random source.
func (b *Builder) Rand() *rand.Rand { return b.net.Engine.Stream().Rand() }

// Net exposes the partially built network (for attaching hosts).
func (b *Builder) Net() *netsim.Network { return b.net.Network }
