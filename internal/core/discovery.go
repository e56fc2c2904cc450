package core

import (
	"time"

	"repro/internal/bridge"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// Stats is the All-Path family's one counter block: every protocol event a
// bridge of any variant takes part in. The variant-only groups stay zero
// on the other variants' bridges.
type Stats struct {
	// Discovery.
	BroadcastRelayed  uint64 // broadcast frames flooded onward
	BroadcastRaceDrop uint64 // duplicate copies discarded (slower paths)
	PathsConfirmed    uint64 // locked→learned upgrades (Flow-Path: pairs written) by replies

	// Unicast dataplane.
	Forwarded      uint64 // unicast frames forwarded along the path
	HairpinDrop    uint64 // destination resolved to the ingress port
	SrcPortDrop    uint64 // unicast from a source locked to another port
	SrcViolRepairs uint64 // new repairs created by non-guarded src-port violations

	// Repair (§2.1.4).
	RepairsStarted   uint64
	PathFailsSent    uint64
	PathFailsRelayed uint64
	PathRequestsSent uint64
	PathRepliesSent  uint64
	RepairReleased   uint64 // buffered frames released after repair
	RepairDropped    uint64 // buffered frames dropped (timeout/overflow)
	EntriesPurged    uint64 // entries of any path table flushed by link failures

	// Proxy (§2.2).
	ProxyConverted uint64 // broadcast requests converted to unicast
	ProxyMisses    uint64 // requests that had to flood anyway

	// Flow-Path only.
	EdgeDelivered uint64 // unicasts delivered off the durable edge host table
	MissDrop      uint64 // establishing replies dropped with nowhere to route them

	// TCP-Path only.
	SynFloods     uint64 // opening segments flooded to race a path
	SynRaceDrops  uint64 // duplicate flood copies filtered
	SynDelivered  uint64 // opening segments terminated at the destination edge
	ConnConfirmed uint64 // connection entries confirmed by SYN|ACK
	ConnForwarded uint64 // segments forwarded on connection entries (not in Forwarded)
	Fallbacks     uint64 // TCP segments handed to the ARP-Path dataplane
}

// Discovery is what every All-Path bridge does the same way whatever keys
// its confirmed paths (§2.1; the All-Path study: the variants differ "only
// in the path identifier"): the chassis, the per-source table the flood
// race runs on, the PathRequest/PathReply exchange that re-runs that race
// for repair, and the counters. Flood loop-freedom and reply routing need
// the first-port rule on the flood's source however the forwarding state
// is keyed, so all of it is per source MAC in every variant and is written
// once, with no type parameter. A variant embeds it and adds its config,
// its fine-grained table and its unicast handler; those handlers are not
// shared, because they differ in what they do, not in what they are keyed
// by (DESIGN.md §10).
//
// The per-source table is reachable as Hosts() only. ARP-Path forwards on
// it and says so by adding Table() and EntryFor; Flow-Path must not gain
// those by promotion, or the scenario checker would walk its transient
// race locks as forwarding state.
//
// The chassis and the table are stored by value: a variant embeds
// Discovery by value too, so one allocation holds everything a frame
// crossing the bridge reads (DESIGN.md §5, "What one hop touches").
type Discovery struct {
	bridge.Chassis
	hosts LockTable
	stats Stats
}

// Init builds, in place, the shared layer of a bridge whose chassis
// dispatches to proto (the embedding variant), racing floods on a
// per-source table with the two timeouts and bound. HELLO neighbour
// discovery is on: repair needs to tell edge ports from trunks. Never copy
// a Discovery once Init has run.
func (d *Discovery) Init(net *netsim.Network, name string, numID int, proto bridge.Protocol, lockTimeout, learnedTimeout time.Duration, bound tables.Config) {
	d.Chassis.Init(net, name, numID, proto)
	d.HelloEnabled = true
	d.hosts.init(lockTimeout, learnedTimeout, bound)
}

// Hosts exposes the per-source table (experiments, checker, variants).
func (d *Discovery) Hosts() *LockTable { return &d.hosts }

// Stats returns a snapshot of the protocol counters.
func (d *Discovery) Stats() Stats { return d.stats }

// Count is the live counter block, for the variant's own handlers to bump
// and its repair queue to count drops into.
func (d *Discovery) Count() *Stats { return &d.stats }

// OnStart implements bridge.Protocol.
func (d *Discovery) OnStart() {}

// Flooded runs §2.1.1's locking race on a flooded frame and reports
// whether this copy survives it (first copy, or one from the bound port);
// a false return means the copy is already accounted a race drop.
//
//fabric:hotpath
func (d *Discovery) Flooded(in *netsim.Port, v *layers.FrameView, now time.Duration) bool {
	// A copy of our own PathRequest flood returning around a cycle is
	// never new information: the originator stamps its BridgeID into the
	// control header, so it can be dropped statelessly. Normally the
	// guard on src's entry filters these copies anyway; this check also
	// covers the bridge that originated a request with no entry for src
	// at all (a restarted bridge mid-repair), which otherwise would treat
	// its own returning flood as a first copy and flood it a second time.
	if v.HasCtl && v.Ctl.Type == layers.PathCtlRequest && v.Ctl.BridgeID == uint64(d.NumID()) {
		d.stats.BroadcastRaceDrop++
		return false
	}
	if d.hosts.Race(v.SrcKey, in, now, v.OpensPath()) == tables.RaceLost {
		d.stats.BroadcastRaceDrop++
		return false
	}
	return true
}

// Relay floods a surviving copy onward (§2.1.3's loop-free flooding).
//
//fabric:hotpath
func (d *Discovery) Relay(in *netsim.Port, f *netsim.Frame) {
	d.stats.BroadcastRelayed++
	d.FloodExcept(in, f)
}

// Answer replies to a PathRequest when the requested destination hangs off
// one of this bridge's edge ports, completing the emulated ARP exchange on
// the host's behalf, and returns that edge port: the caller writes whatever
// state its variant keeps for the terminal hop and releases the frames it
// was buffering itself. nil means v is not a request this bridge answers.
func (d *Discovery) Answer(in *netsim.Port, v *layers.FrameView, now time.Duration) *netsim.Port {
	if v.Ctl.Type != layers.PathCtlRequest {
		return nil
	}
	ctl := &v.Ctl
	e, ok := d.hosts.Get(ctl.Dst, now)
	if !ok || !d.IsEdge(e.Port) || e.Port == in {
		return nil
	}
	// The request just locked Src to the ingress port; reply along it in
	// Dst's name, which confirms Dst's path at every bridge on the way.
	d.stats.PathRepliesSent++
	in.Send(d.CtlFrame(ctl.Src, ctl.Dst, layers.PathCtl{Type: layers.PathCtlReply, Src: ctl.Src, Dst: ctl.Dst, Nonce: ctl.Nonce}))
	return e.Port
}

// RequestPath floods a PathRequest that the whole fabric treats exactly
// like an ARP Request broadcast from src: every bridge re-locks src's
// position, rebuilding the minimum-latency reverse path.
func (d *Discovery) RequestPath(src, dst layers.MAC, nonce uint32) {
	// The frame is sourced from src's own MAC so the locking race works
	// unchanged; hosts never see it (bridges consume PathCtl).
	frame := d.CtlFrame(layers.BroadcastMAC, src, layers.PathCtl{Type: layers.PathCtlRequest, Src: src, Dst: dst, Nonce: nonce})
	d.stats.PathRequestsSent++
	now := d.Now()
	// Re-arm the race window on src's current binding before flooding.
	// Without the guard, a copy of this very flood can loop back here over
	// a parallel link and steal the lock — which once corrupted a pair of
	// bridges into a permanent unicast ping-pong (see
	// TestRandomFailureSchedulesStayConnected). Guard (not Lock): the
	// entry must survive an unanswered repair, or the edge bridge would
	// forget its own attached host.
	var except *netsim.Port
	if e, ok := d.hosts.Get(src, now); ok {
		d.hosts.Guard(src, now)
		except = e.Port
	}
	d.stats.BroadcastRelayed++
	d.FloodBytesExcept(except, frame)
}

// Completed accounts n buffered frames a repair queue just released along
// a confirmed path: released, and forwarded.
func (d *Discovery) Completed(n int) {
	d.stats.RepairReleased += uint64(n)
	d.stats.Forwarded += uint64(n)
}

// OnPortStatus implements bridge.Protocol: a dead link invalidates every
// path through it immediately — the next unicast miss triggers repair. A
// variant with a table of its own flushes that too.
func (d *Discovery) OnPortStatus(p *netsim.Port, up bool) {
	if !up {
		d.stats.EntriesPurged += uint64(d.hosts.FlushPort(p))
	}
}

// PowerCycle is the shared half of a restart with total table loss, after
// the variant has abandoned its repairs and emptied its own tables: the
// per-source table is emptied, the chassis forgets its neighbours, and
// every attached link bounces — a rebooting chassis drops carrier, which
// is how the neighbours learn anything happened: they purge paths through
// this bridge (OnPortStatus) and re-HELLO on the up transition, while this
// bridge relearns everything from live traffic and the repair machinery
// alone. That recovery is exactly the property the scenario engine's
// fault schedules probe. Must be called from the simulation goroutine.
func (d *Discovery) PowerCycle() {
	d.hosts.Reset()
	d.Chassis.Restart()
	d.BounceLinks()
}
