package flowpath

import (
	"errors"
	"time"

	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// Config tunes a Flow-Path bridge. The zero value is not valid; use
// DefaultConfig (the builder defaults field-wise via WithDefaults). The
// struct is also the spec-file form: the json tags are the wire names.
type Config struct {
	// LockTimeout is the discovery race window, shared by the transient
	// per-host locks and the pair entries' guards.
	LockTimeout layers.Duration `json:"lock_timeout,omitempty"`
	// PairTimeout is the lifetime of confirmed pair entries; traffic
	// refreshes it.
	PairTimeout layers.Duration `json:"pair_timeout,omitempty"`
	// HostTimeout is the lifetime of the durable host entries an edge
	// bridge keeps for its own attached stations (the study's edge host
	// table); transit bridges hold hosts only for the race window.
	HostTimeout layers.Duration `json:"host_timeout,omitempty"`
	// RepairTimeout bounds how long frames buffer per missing pair.
	RepairTimeout layers.Duration `json:"repair_timeout,omitempty"`
	// RepairBuffer caps buffered frames per missing pair.
	RepairBuffer int `json:"repair_buffer,omitempty"`
	// PairCapacity bounds the pair table (0 = unbounded); the durable
	// edge host table is naturally bounded by the attached stations and
	// stays unbounded. See DESIGN.md §12.
	PairCapacity int `json:"pair_capacity,omitempty"`
	// PairPolicy is the pair-table eviction policy: "lru" or "clock"
	// ("" / "timeout" is the unbounded baseline).
	PairPolicy string `json:"pair_policy,omitempty"`
}

// DefaultConfig matches ARP-Path's timing so the variants compare like
// for like.
func DefaultConfig() Config {
	return Config{
		LockTimeout:   layers.Duration(200 * time.Millisecond),
		PairTimeout:   layers.Duration(120 * time.Second),
		HostTimeout:   layers.Duration(120 * time.Second),
		RepairTimeout: layers.Duration(500 * time.Millisecond),
		RepairBuffer:  64,
	}
}

// WithDefaults fills unset (zero) fields field-wise.
func (c Config) WithDefaults() Config {
	d := DefaultConfig()
	if c.LockTimeout == 0 {
		c.LockTimeout = d.LockTimeout
	}
	if c.PairTimeout == 0 {
		c.PairTimeout = d.PairTimeout
	}
	if c.HostTimeout == 0 {
		c.HostTimeout = d.HostTimeout
	}
	if c.RepairTimeout == 0 {
		c.RepairTimeout = d.RepairTimeout
	}
	if c.RepairBuffer == 0 {
		c.RepairBuffer = d.RepairBuffer
	}
	return c
}

// Check reports the first value a bridge cannot run with, by its spec key
// (the registry's check on decoded specs; New panics on the same error).
func (c Config) Check() error {
	switch {
	case c.LockTimeout <= 0:
		return errors.New("lock_timeout must be positive")
	case c.PairTimeout <= 0:
		return errors.New("pair_timeout must be positive")
	case c.HostTimeout <= 0:
		return errors.New("host_timeout must be positive")
	case c.RepairTimeout <= 0:
		return errors.New("repair_timeout must be positive")
	case c.RepairBuffer <= 0:
		return errors.New("repair_buffer must be positive")
	}
	_, err := tables.ParseConfig(c.PairCapacity, c.PairPolicy)
	return err
}

// Stats counts Flow-Path protocol events.
type Stats struct {
	BroadcastLocked   uint64 // host race locks created by flood first copies
	BroadcastRelayed  uint64
	BroadcastRaceDrop uint64
	PairsConfirmed    uint64 // pair entries learned from establishing replies
	Forwarded         uint64 // unicasts forwarded along pair entries
	EdgeDelivered     uint64 // unicasts delivered off the durable edge host table
	HairpinDrop       uint64
	SrcPortDrop       uint64
	MissDrop          uint64 // establishing replies dropped with nowhere to route them
	RepairsStarted    uint64
	RepairReleased    uint64
	RepairDropped     uint64
	PathRequestsSent  uint64
	PathRepliesSent   uint64
	EntriesPurged     uint64
}

// Bridge is a Flow-Path bridge: discovery floods race per source host
// exactly as in ARP-Path (flood loop-freedom needs the per-source
// first-port rule regardless of how paths are keyed), but confirmed
// forwarding state is per directed {src, dst} pair, written by the reply
// as it retraces the winning path. Transit bridges therefore hold state
// only for the pairs whose paths cross them, while each edge bridge keeps
// durable entries for its own attached stations so it can keep answering
// discovery on their behalf.
type Bridge struct {
	*bridge.Chassis
	cfg     Config
	hosts   *core.LockTable // per-host: durable at edges, race-window elsewhere
	pairs   *PairTable      // per directed pair: the forwarding state proper
	repairs *bridge.Repairs[PairKey]
	stats   Stats
}

// New creates a Flow-Path bridge.
func New(net *netsim.Network, name string, numID int, cfg Config) *Bridge {
	if err := cfg.Check(); err != nil {
		panic("flowpath: " + err.Error())
	}
	bound, _ := tables.ParseConfig(cfg.PairCapacity, cfg.PairPolicy) // Check vetted it
	b := &Bridge{
		cfg:   cfg,
		hosts: core.NewLockTable(cfg.LockTimeout.D(), cfg.HostTimeout.D()),
		// Pair keys are packed MACs in both halves: the junk-key guard
		// applies (multicast or zero halves never pin a slot).
		pairs: NewBoundedPairTable(cfg.LockTimeout.D(), cfg.PairTimeout.D(), bound, true),
	}
	b.Chassis = bridge.NewChassis(net, name, numID, b)
	b.HelloEnabled = true
	b.repairs = bridge.NewRepairs[PairKey](b.Chassis, cfg.RepairTimeout.D(), cfg.RepairBuffer, &b.stats.RepairDropped)
	return b
}

// pairOf builds the directed pair key for frames src→dst.
func pairOf(src, dst uint64) PairKey { return PairKey{Hi: src, Lo: dst} }

// Stats returns a snapshot of the protocol counters.
func (b *Bridge) Stats() Stats { return b.stats }

// Config returns the bridge configuration.
func (b *Bridge) Config() Config { return b.cfg }

// Pairs exposes the pair table (experiments, checker).
func (b *Bridge) Pairs() *PairTable { return b.pairs }

// Hosts exposes the host table (experiments, checker).
func (b *Bridge) Hosts() *core.LockTable { return b.hosts }

// PathTables lists the bounded pair table, then the host table.
func (b *Bridge) PathTables() []tables.View { return []tables.View{b.pairs, b.hosts} }

// FlowNextHop returns the port frames src→dst leave on, if a live pair
// entry exists (the scenario checker's walk primitive).
func (b *Bridge) FlowNextHop(src, dst layers.MAC, now time.Duration) (*netsim.Port, bool) {
	e, ok := b.pairs.Get(pairOf(src.Uint64(), dst.Uint64()), now)
	if !ok {
		return nil, false
	}
	return e.Port, true
}

// PendingRepairs returns the number of outstanding pair repairs (tests).
func (b *Bridge) PendingRepairs() int { return b.repairs.Len() }

// OnStart implements bridge.Protocol.
func (b *Bridge) OnStart() {}

// OnPortStatus implements bridge.Protocol: a dead link invalidates every
// path through it, pair and host entries alike.
func (b *Bridge) OnPortStatus(p *netsim.Port, up bool) {
	if !up {
		b.stats.EntriesPurged += uint64(b.hosts.FlushPort(p)) + uint64(b.pairs.FlushPort(p))
	}
}

// Restart models a power-cycle with total table loss, mirroring
// core.Bridge.Restart: repairs abandoned (buffered frames released),
// tables emptied, chassis forgotten, every link bounced.
func (b *Bridge) Restart() {
	b.repairs.Abandon()
	b.hosts.Reset()
	b.pairs.Reset()
	b.Chassis.Restart()
	b.BounceLinks()
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

// handleBroadcast is ARP-Path's §2.1.1/§2.1.3 discovery race — the same
// Table.Race call core makes — at the per-source level: flood
// loop-freedom and reply routing both need the first-port rule on the
// flood's source whatever keys the confirmed state. The one Flow-Path
// refinement: a broadcast arriving on an edge port learns the attached
// station durably, so this bridge can answer future PathRequests for it
// (the study's edge host table).
//
//fabric:hotpath
func (b *Bridge) handleBroadcast(in *netsim.Port, f *netsim.Frame, v *layers.FrameView) {
	now := b.Now()
	src := v.SrcKey

	// Own returning PathRequest flood: statelessly dead (core's rule).
	if v.HasCtl && v.Ctl.Type == layers.PathCtlRequest && v.Ctl.BridgeID == uint64(b.NumID()) {
		b.stats.BroadcastRaceDrop++
		return
	}

	switch b.hosts.Race(src, in, now, v.OpensPath()) {
	case tables.RaceWon:
		b.stats.BroadcastLocked++
	case tables.RaceLost:
		b.stats.BroadcastRaceDrop++
		return
	}
	if b.IsEdge(in) {
		// Our own attached station: keep it past the race window (the
		// Learn preserves the freshly armed guard on the same port).
		b.hosts.LearnKey(src, in, now)
	}

	// Answer a PathRequest for one of our attached stations.
	if v.HasCtl {
		if b.answerPathRequest(in, v, now) {
			return
		}
	}

	b.stats.BroadcastRelayed++
	b.FloodExcept(in, f)
}

// handleUnicast forwards data on pair entries, confirms pairs from
// establishing replies, and triggers pair repair on misses.
//
//fabric:hotpath
func (b *Bridge) handleUnicast(in *netsim.Port, f *netsim.Frame, v *layers.FrameView) {
	now := b.Now()
	src, dst := v.SrcKey, v.DstKey
	establishing := v.ConfirmsPath()

	// Flow-Path has no PathFail walk (repair always floods from the miss
	// bridge); a stray one is consumed, not forwarded.
	if v.EtherType == layers.EtherTypePathCtl && !establishing {
		return
	}

	// Source side: maintain the transient reverse-route state the reply
	// relies on, with the §2.1.1 filter intact.
	if ref, e, ok := b.hosts.Find(src, now); ok {
		switch {
		case e.Port == in:
			if establishing && b.IsEdge(in) {
				b.hosts.LearnKey(src, in, now)
			} else {
				b.hosts.RefreshAt(ref, now)
			}
		case e.Guarded(now):
			b.stats.SrcPortDrop++
			return
		case establishing:
			// A reply from a new direction re-establishes (repair).
			if b.IsEdge(in) {
				b.hosts.LearnKey(src, in, now)
			} else {
				b.hosts.LockKey(src, in, now)
			}
		default:
			// Data violating the source binding outside any race window:
			// unlike core there is no per-host forwarding state to
			// protect, so the stale binding is simply dropped — the pair
			// machinery below (miss → repair) restores the conversation.
			b.hosts.DeleteKey(src)
		}
	} else if b.IsEdge(in) {
		b.hosts.LearnKey(src, in, now)
	}

	if establishing {
		b.confirmPair(in, f, v, now)
		return
	}

	// Data: the pair table is the only forwarding state.
	pk := pairOf(src, dst)
	if ref, e, ok := b.pairs.Find(pk, now); ok {
		if e.Port == in || b.SameNeighbor(e.Port, in) {
			b.stats.HairpinDrop++
			return
		}
		b.pairs.RefreshAt(ref, now)
		b.stats.Forwarded++
		e.Port.SendFrame(f)
		return
	}
	// Edge shortcut: the destination hangs off this bridge — deliver and
	// learn the pair (a one-hop path cannot loop).
	if he, ok := b.hosts.GetKey(dst, now); ok && b.IsEdge(he.Port) && he.Port != in {
		b.pairs.Learn(pk, he.Port, now)
		b.stats.EdgeDelivered++
		he.Port.SendFrame(f)
		return
	}
	b.startRepair(f, v, now)
}

// confirmPair routes an establishing reply (frame src = the answering
// station D, dst = the flow source S) toward S and writes the pair state
// for both directions: frames S→D leave where the reply arrived, frames
// D→S leave where it departs. This is the step that turns the discovery
// race's transient locks into per-pair forwarding state along exactly the
// winning path — and nowhere else.
func (b *Bridge) confirmPair(in *netsim.Port, f *netsim.Frame, v *layers.FrameView, now time.Duration) {
	src, dst := v.SrcKey, v.DstKey // src = D (answering), dst = S (requesting)
	var out *netsim.Port
	if e, ok := b.hosts.GetKey(dst, now); ok && e.Port != in && !b.SameNeighbor(e.Port, in) {
		out = e.Port
	} else if e, ok := b.pairs.Get(pairOf(src, dst), now); ok && e.Port != in && !b.SameNeighbor(e.Port, in) {
		// No live host lock (late reply): fall back to the existing
		// reverse-pair path if one survives.
		out = e.Port
	}
	if out == nil {
		// Nowhere to route the confirmation; the requester will retry.
		b.stats.MissDrop++
		return
	}
	b.pairs.Learn(pairOf(dst, src), in, now) // S→D exits via the reply's ingress
	b.pairs.Learn(pairOf(src, dst), out, now)
	b.stats.PairsConfirmed++
	// Release anything buffered for S→D now that the path exists.
	b.completeRepair(pairOf(dst, src), in)
	b.stats.Forwarded++
	out.SendFrame(f)
}

// startRepair buffers a missed frame and floods a PathRequest for the
// pair. Unlike core there is no PathFail walk toward the source: the
// request always floods from the miss bridge, sourced from the flow's
// source MAC so the per-source race relocks reply routing fabric-wide.
func (b *Bridge) startRepair(f *netsim.Frame, v *layers.FrameView, now time.Duration) {
	nonce, fresh := b.repairs.Park(pairOf(v.SrcKey, v.DstKey), f)
	if !fresh {
		return
	}
	b.stats.RepairsStarted++
	// Sourced from the flow's source so the locking race works unchanged;
	// hosts never see it (bridges consume PathCtl).
	frame := b.CtlFrame(layers.BroadcastMAC, v.Src, layers.PathCtl{Type: layers.PathCtlRequest, Src: v.Src, Dst: v.Dst, Nonce: nonce})
	b.stats.PathRequestsSent++
	var except *netsim.Port
	if e, ok := b.hosts.GetKey(v.SrcKey, now); ok {
		// Guard the source's binding so our own returning flood cannot
		// steal it (core.originatePathRequest's rule).
		b.hosts.GuardKey(v.SrcKey, now)
		except = e.Port
	}
	b.stats.BroadcastRelayed++
	b.FloodBytesExcept(except, frame)
}

// completeRepair releases frames buffered for pk out the confirmed port.
func (b *Bridge) completeRepair(pk PairKey, out *netsim.Port) {
	n := uint64(b.repairs.Release(pk, out))
	b.stats.RepairReleased += n
	b.stats.Forwarded += n
}

// answerPathRequest replies to a pair PathRequest when the requested
// destination hangs off one of this bridge's edge ports — the durable
// edge host table is what makes this possible after the transient locks
// of the original exchange have long expired.
func (b *Bridge) answerPathRequest(in *netsim.Port, v *layers.FrameView, now time.Duration) bool {
	if v.Ctl.Type != layers.PathCtlRequest {
		return false
	}
	ctl := &v.Ctl
	e, ok := b.hosts.Get(ctl.Dst, now)
	if !ok || !b.IsEdge(e.Port) || e.Port == in {
		return false
	}
	b.stats.PathRepliesSent++
	// The request just locked Src to the ingress; the reply will retrace
	// it, confirming the pair at every hop. The terminal hops are ours:
	// write both directions now so data released upstream completes the
	// path (Src→Dst out the edge port, Dst→Src back out the ingress).
	b.pairs.Learn(pairOf(ctl.Src.Uint64(), ctl.Dst.Uint64()), e.Port, now)
	b.pairs.Learn(pairOf(ctl.Dst.Uint64(), ctl.Src.Uint64()), in, now)
	in.Send(b.CtlFrame(ctl.Src, ctl.Dst, layers.PathCtl{Type: layers.PathCtlReply, Src: ctl.Src, Dst: ctl.Dst, Nonce: ctl.Nonce}))
	// Release anything we were buffering for the pair ourselves.
	b.completeRepair(pairOf(ctl.Src.Uint64(), ctl.Dst.Uint64()), e.Port)
	return true
}

var _ bridge.Protocol = (*Bridge)(nil)
var _ netsim.Node = (*Bridge)(nil)
