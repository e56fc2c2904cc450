// Package fabric is the public SDK of the reproduction: a declarative,
// JSON-serializable Spec that fully determines a run (topology, protocol
// and per-protocol config, links, seed, warm-up, shards, fault schedule,
// workload and verification knobs), a protocol registry that makes
// bridging protocols pluggable, and a Runner that owns the build →
// warm-up → workload → collect lifecycle every harness shares.
//
// Every workload is one row of the kind table (workload.go), the paper's
// evidence included: Figures 1–3 (workload_figures.go) and the tables
// T1–T6 (workload_tables.go) are runs of this package configured by
// their Spec alone, so `arppath-sim -spec` reruns each of them.
//
// The cmds (arppath-sim, fabricserve) are thin shells over this package:
// each loads a Spec (-spec file.json) and hands it to a Runner or the
// daemon. A Spec plus a seed is a complete, reproducible experiment:
// same Spec, same trace fingerprint, at any shard count.
//
// A minimal run, a ping on the default fabric (the paper's Figure 2):
//
//	spec := fabric.Spec{Workload: fabric.WorkloadSpec{Kind: "ping"}}
//	res, err := fabric.Run(spec)
//
// Protocols register like database/sql drivers. The in-tree ones (arppath,
// stp, learning, flowpath, tcppath) are registered by init(); a variant is
// a json-tagged config struct plus a constructor, and is immediately
// buildable from any Spec naming it:
//
//	type Config struct {
//		Window fabric.Duration `json:"window,omitempty"`
//	}
//	fabric.RegisterProtocol("warp-path", fabric.Proto[Config]{
//		Defaults: func(c Config) Config { ...; return c },
//		Check:    func(c Config) error { ... },
//		WarmUp:   func(Config) time.Duration { return 10 * time.Millisecond },
//		New:      func(net *fabric.Network, name string, id int, c Config) fabric.Bridge { ... },
//	})
package fabric

import (
	"repro/internal/host"
	"repro/internal/netsim"
	"repro/internal/topo"

	// The All-Path variants (Flow-Path, TCP-Path) register themselves
	// through the protocol registry exactly like an out-of-tree protocol
	// would: importing the SDK is what links them into every harness.
	_ "repro/internal/flowpath"
)

// Re-exported types: the SDK surface an out-of-tree protocol or harness
// needs, without reaching into internal packages.
type (
	// Network is the simulated Ethernet fabric.
	Network = netsim.Network
	// LinkConfig describes a link's rate, delay and queue.
	LinkConfig = netsim.LinkConfig
	// Bridge is the protocol-independent view of a built bridge.
	Bridge = topo.Bridge
	// Built is a built topology: the network plus its named hosts/links.
	Built = topo.Built
	// Options is the compiled, imperative form of a Spec's build half.
	Options = topo.Options
	// TopologySpec names a topology family and its size keys; the family
	// table in internal/topo defaults, checks and builds it.
	TopologySpec = topo.TopologySpec
	// Host is a simulated end station.
	Host = host.Host
	// PingResult is the outcome of one ICMP echo exchange (Host.Ping).
	PingResult = host.PingResult
	// Duration marshals as a human-readable string ("200ms") in specs.
	Duration = topo.Duration
)

// Proto describes a bridging protocol to the SDK. Its config type C is
// the protocol's spec-file form: a struct of json-tagged fields (Duration
// for time spans) that the registry alone decodes — strictly, so an
// unknown key in a spec's extension is an error — defaults through
// Defaults, vets through Check, and re-encodes canonically. The builder
// never learns the concrete type, which is what lets out-of-tree variants
// register without touching it.
type Proto[C any] = topo.Proto[C]

// RegisterProtocol makes a protocol buildable from every Spec and every
// harness under the given name. It panics on duplicates, an incomplete
// Proto or an untagged config field (call it from init()).
func RegisterProtocol[C any](name string, p Proto[C]) {
	topo.Register(topo.Protocol(name), p)
}

// Protocols lists every registered protocol name, sorted.
func Protocols() []string {
	ps := topo.Protocols()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = string(p)
	}
	return out
}
