package flowpath

import (
	"time"

	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// Config bounds a Flow-Path bridge's pair table; its timing is ARP-Path's
// (the core constants), so the variants compare like for like. The zero
// value is the unbounded baseline. The struct is also the spec-file form:
// the json tags are the wire names.
type Config struct {
	// PairCapacity bounds the pair table (0 = unbounded); the durable
	// edge host table is naturally bounded by the attached stations and
	// stays unbounded. See DESIGN.md §12.
	PairCapacity int `json:"pair_capacity,omitempty"`
	// PairPolicy is the pair-table eviction policy: "lru" or "clock"
	// ("" / "timeout" is the unbounded baseline).
	PairPolicy string `json:"pair_policy,omitempty"`
}

// Check reports a bound a bridge cannot run with, by its spec key (the
// registry's check on decoded specs; New panics on the same error).
func (c Config) Check() error {
	_, err := tables.ParseConfig(c.PairCapacity, c.PairPolicy)
	return err
}

// Bridge is a Flow-Path bridge: discovery floods race per source host
// exactly as in ARP-Path (flood loop-freedom needs the per-source
// first-port rule regardless of how paths are keyed), but confirmed
// forwarding state is per directed {src, dst} pair, written by the reply
// as it retraces the winning path. Transit bridges therefore hold state
// only for the pairs whose paths cross them, while each edge bridge keeps
// durable entries for its own attached stations so it can keep answering
// discovery on their behalf. The race, the relay and the PathRequest /
// PathReply exchange are core.Discovery's; what is written here is the
// pair table and the unicast handler that fills and follows it.
type Bridge struct {
	// Hosts() is per-host: durable at edges, race-window elsewhere.
	core.Discovery
	pairs   *PairTable // per directed pair: the forwarding state proper
	repairs *bridge.Repairs[PairKey]
}

// New creates a Flow-Path bridge.
func New(net *netsim.Network, name string, numID int, cfg Config) *Bridge {
	if err := cfg.Check(); err != nil {
		panic("flowpath: " + err.Error())
	}
	bound, _ := tables.ParseConfig(cfg.PairCapacity, cfg.PairPolicy) // Check vetted it
	b := &Bridge{
		// Pair keys are packed MACs in both halves: the junk-key guard
		// applies (multicast or zero halves never pin a slot).
		pairs: NewBoundedPairTable(core.DefaultLockTimeout, core.LearnedTimeout, bound, true),
	}
	b.Discovery.Init(net, name, numID, b, core.DefaultLockTimeout, core.LearnedTimeout, tables.Config{})
	b.repairs = bridge.NewRepairs[PairKey](&b.Chassis, core.RepairTimeout, core.RepairBuffer, &b.Count().RepairDropped)
	return b
}

// pairOf builds the directed pair key for frames src→dst.
func pairOf(src, dst uint64) PairKey { return PairKey{Hi: src, Lo: dst} }

// Pairs exposes the pair table (experiments, checker).
func (b *Bridge) Pairs() *PairTable { return b.pairs }

// PathTables lists the bounded pair table, then the host table.
func (b *Bridge) PathTables() []tables.View { return []tables.View{b.pairs, b.Hosts()} }

// NextHop returns the port frames src→dst leave on, if a live pair entry
// exists (the scenario checker's walk primitive).
func (b *Bridge) NextHop(src, dst layers.MAC, now time.Duration) (*netsim.Port, bool) {
	e, ok := b.pairs.Get(pairOf(src.Uint64(), dst.Uint64()), now)
	return e.Port, ok
}

// PendingRepairs returns the number of outstanding pair repairs (tests).
func (b *Bridge) PendingRepairs() int { return b.repairs.Len() }

// OnPortStatus implements bridge.Protocol: a dead link invalidates every
// path through it, pair and host entries alike.
func (b *Bridge) OnPortStatus(p *netsim.Port, up bool) {
	b.Discovery.OnPortStatus(p, up)
	if !up {
		b.Count().EntriesPurged += uint64(b.pairs.FlushPort(p))
	}
}

// Restart models a power-cycle with total table loss, mirroring
// core.Bridge.Restart: repairs abandoned (buffered frames released), the
// pair table emptied, and Discovery.PowerCycle does the rest.
func (b *Bridge) Restart() {
	b.repairs.Abandon()
	b.pairs.Reset()
	b.PowerCycle()
}

// OnFrame implements bridge.Protocol.
//
//fabric:hotpath
func (b *Bridge) OnFrame(in *netsim.Port, f *netsim.Frame) {
	v := f.View()
	if v.IsMulticast() {
		b.handleBroadcast(in, f, v)
		return
	}
	b.handleUnicast(in, f, v)
}

// handleBroadcast is core.Discovery's flood handling — the race runs at
// the per-source level whatever keys the confirmed state — with the two
// Flow-Path refinements: a broadcast arriving on an edge port learns the
// attached station durably, so this bridge can answer future PathRequests
// for it (the study's edge host table), and answering one writes the
// terminal hops' pair state.
//
//fabric:hotpath
func (b *Bridge) handleBroadcast(in *netsim.Port, f *netsim.Frame, v *layers.FrameView) {
	now := b.Now()
	if !b.Flooded(in, v, now) {
		return
	}
	if b.IsEdge(in) {
		// Our own attached station: keep it past the race window (the
		// Learn preserves the freshly armed guard on the same port).
		b.Hosts().LearnKey(v.SrcKey, in, now)
	}

	// Answer a PathRequest for one of our attached stations — the durable
	// edge host table is what makes this possible after the transient
	// locks of the original exchange have long expired.
	if v.HasCtl {
		if edge := b.Answer(in, v, now); edge != nil {
			// The request just locked Src to the ingress; the reply will
			// retrace it, confirming the pair at every hop. The terminal
			// hops are ours: write both directions now so data released
			// upstream completes the path (Src→Dst out the edge port,
			// Dst→Src back out the ingress), and release anything we were
			// buffering for the pair ourselves.
			src, dst := v.Ctl.Src.Uint64(), v.Ctl.Dst.Uint64()
			b.pairs.Learn(pairOf(src, dst), edge, now)
			b.pairs.Learn(pairOf(dst, src), in, now)
			b.Completed(b.repairs.Release(pairOf(src, dst), edge))
			return
		}
	}

	b.Relay(in, f)
}

// handleUnicast forwards data on pair entries, confirms pairs from
// establishing replies, and triggers pair repair on misses.
//
//fabric:hotpath
func (b *Bridge) handleUnicast(in *netsim.Port, f *netsim.Frame, v *layers.FrameView) {
	now, hosts := b.Now(), b.Hosts()
	src, dst := v.SrcKey, v.DstKey
	establishing := v.ConfirmsPath()

	// Flow-Path has no PathFail walk (repair always floods from the miss
	// bridge); a stray one is consumed, not forwarded.
	if v.EtherType == layers.EtherTypePathCtl && !establishing {
		return
	}

	// Source side: maintain the transient reverse-route state the reply
	// relies on, with the §2.1.1 filter intact.
	if ref, e, ok := hosts.Find(src, now); ok {
		switch {
		case e.Port == in:
			if establishing && b.IsEdge(in) {
				hosts.LearnKey(src, in, now)
			} else {
				hosts.RefreshAt(ref, now)
			}
		case e.Guarded(now):
			b.Count().SrcPortDrop++
			return
		case establishing:
			// A reply from a new direction re-establishes (repair).
			if b.IsEdge(in) {
				hosts.LearnKey(src, in, now)
			} else {
				hosts.LockKey(src, in, now)
			}
		default:
			// Data violating the source binding outside any race window:
			// unlike core there is no per-host forwarding state to
			// protect, so the stale binding is simply dropped — the pair
			// machinery below (miss → repair) restores the conversation.
			hosts.DeleteKey(src)
		}
	} else if b.IsEdge(in) {
		hosts.LearnKey(src, in, now)
	}

	if establishing {
		b.confirmPair(in, f, v, now)
		return
	}

	// Data: the pair table is the only forwarding state.
	pk := pairOf(src, dst)
	if ref, e, ok := b.pairs.Find(pk, now); ok {
		if e.Port == in || b.SameNeighbor(e.Port, in) {
			b.Count().HairpinDrop++
			return
		}
		b.pairs.RefreshAt(ref, now)
		b.Count().Forwarded++
		e.Port.SendFrame(f)
		return
	}
	// Edge shortcut: the destination hangs off this bridge — deliver and
	// learn the pair (a one-hop path cannot loop).
	if he, ok := hosts.GetKey(dst, now); ok && b.IsEdge(he.Port) && he.Port != in {
		b.pairs.Learn(pk, he.Port, now)
		b.Count().EdgeDelivered++
		he.Port.SendFrame(f)
		return
	}
	b.startRepair(f, v)
}

// confirmPair routes an establishing reply (frame src = the answering
// station D, dst = the flow source S) toward S and writes the pair state
// for both directions: frames S→D leave where the reply arrived, frames
// D→S leave where it departs. This is the step that turns the discovery
// race's transient locks into per-pair forwarding state along exactly the
// winning path — and nowhere else.
//
//fabric:hotpath
func (b *Bridge) confirmPair(in *netsim.Port, f *netsim.Frame, v *layers.FrameView, now time.Duration) {
	src, dst := v.SrcKey, v.DstKey // src = D (answering), dst = S (requesting)
	var out *netsim.Port
	if e, ok := b.Hosts().GetKey(dst, now); ok && e.Port != in && !b.SameNeighbor(e.Port, in) {
		out = e.Port
	} else if e, ok := b.pairs.Get(pairOf(src, dst), now); ok && e.Port != in && !b.SameNeighbor(e.Port, in) {
		// No live host lock (late reply): fall back to the existing
		// reverse-pair path if one survives.
		out = e.Port
	}
	if out == nil {
		// Nowhere to route the confirmation; the requester will retry.
		b.Count().MissDrop++
		return
	}
	b.pairs.Learn(pairOf(dst, src), in, now) // S→D exits via the reply's ingress
	b.pairs.Learn(pairOf(src, dst), out, now)
	b.Count().PathsConfirmed++
	// Release anything buffered for S→D now that the path exists.
	b.Completed(b.repairs.Release(pairOf(dst, src), in))
	b.Count().Forwarded++
	out.SendFrame(f)
}

// startRepair buffers a missed frame and floods a PathRequest for the
// pair. Unlike core there is no PathFail walk toward the source: the
// request always floods from the miss bridge, sourced from the flow's
// source MAC so the per-source race relocks reply routing fabric-wide.
func (b *Bridge) startRepair(f *netsim.Frame, v *layers.FrameView) {
	nonce, fresh := b.repairs.Park(pairOf(v.SrcKey, v.DstKey), f)
	if !fresh {
		return
	}
	b.Count().RepairsStarted++
	b.RequestPath(v.Src, v.Dst, nonce)
}

var _ bridge.Protocol = (*Bridge)(nil)
var _ netsim.Node = (*Bridge)(nil)
