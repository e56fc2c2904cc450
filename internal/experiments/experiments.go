// Package experiments contains one runner per figure and table of the
// paper's evaluation (see DESIGN.md §4 for the index). The cmd/ tools
// (through pkg/fabric) and bench/perf all call into it, so a result is
// computed exactly one way everywhere. A runner takes the build half of
// its row's Spec as topo.Options (seed, shard count, and for a
// one-protocol row its protocol and tweaks) and builds every fabric with
// topo.Build from a family's TopologySpec; the tables sweep's pressure
// fabric is the one exception (tablesFabric says why).
package experiments

import (
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// defaults is o for protocol p with p's registered defaults: what a Spec
// naming only o's seed, o's shard count and p compiles to. A row that
// compares protocols builds each of them from it.
func defaults(o topo.Options, p topo.Protocol) topo.Options {
	d := topo.DefaultOptions(p, o.Seed)
	d.Shards = o.Shards
	return d
}

// build is topo.Build for a row's fixed family: a family the table lacks
// is a programming error here, as a size its builder refuses already is.
func build(o topo.Options, t topo.TopologySpec) *topo.Built {
	b, err := topo.Build(o, t)
	if err != nil {
		panic(err)
	}
	return b
}

// OnNetworkDone is a test hook: when set, every runner invokes it with
// each network it built, after that network's measurements are complete.
// The pooled-frame leak gate uses it to drain every figure/table
// experiment's network and assert the frame refcounts balance; it is nil
// (and free) outside tests.
var OnNetworkDone func(n *topo.Built)

// finishNet reports a network the current runner is done measuring.
func finishNet(n *topo.Built) {
	if OnNetworkDone != nil {
		OnNetworkDone(n)
	}
}

// PathTracer reconstructs the bridge path a probe takes by watching
// deliveries network-wide. Attach it before sending the probe; the hop
// list is the sequence of nodes that received the matching frames.
type PathTracer struct {
	match func(frame []byte) bool
	hops  []string
}

// TraceEchoRequests returns a tracer matching ICMP echo requests from src
// to dst.
func TraceEchoRequests(net *netsim.Network, src, dst layers.Addr4) *PathTracer {
	t := &PathTracer{match: func(frame []byte) bool {
		var eth layers.Ethernet
		if eth.DecodeFromBytes(frame) != nil || eth.EtherType != layers.EtherTypeIPv4 {
			return false
		}
		var ip layers.IPv4
		if ip.DecodeFromBytes(eth.Payload()) != nil || ip.Protocol != layers.IPProtoICMP {
			return false
		}
		if ip.Src != src || ip.Dst != dst {
			return false
		}
		var echo layers.ICMPEcho
		return echo.DecodeFromBytes(ip.Payload()) == nil && echo.Type == layers.ICMPEchoRequest
	}}
	net.Tap(func(ev netsim.TapEvent) {
		if ev.Kind != netsim.TapDeliver || !t.match(ev.Frame) {
			return
		}
		name := ev.To.Node().Name()
		if n := len(t.hops); n == 0 || t.hops[n-1] != name {
			t.hops = append(t.hops, name)
		}
	})
	return t
}

// Reset clears the recorded hops (between probes).
func (t *PathTracer) Reset() { t.hops = nil }

// Hops returns the nodes the probe visited, in order.
func (t *PathTracer) Hops() []string { return append([]string(nil), t.hops...) }

// countBroadcastDeliveries attaches a counter of broadcast ARP/PathRequest
// deliveries — the flood volume measure of T1/T3.
func countBroadcastDeliveries(net *netsim.Network) *uint64 {
	var n uint64
	net.Tap(func(ev netsim.TapEvent) {
		if ev.Kind != netsim.TapDeliver {
			return
		}
		if !layers.FrameDst(ev.Frame).IsBroadcast() {
			return
		}
		switch layers.FrameEtherType(ev.Frame) {
		case layers.EtherTypeARP, layers.EtherTypePathCtl:
			n++
		}
	})
	return &n
}
