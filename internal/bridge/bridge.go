// Package bridge provides the chassis shared by every bridge protocol in
// this repository (ARP-Path, 802.1D STP, plain learning). The chassis owns
// the ports, gives the bridge a MAC identity, floods frames
// deterministically, builds the PathCtl frames a bridge originates, and —
// when enabled — runs the HELLO neighbour discovery that lets ARP-Path
// bridges tell trunk (bridge-facing) ports from edge (host-facing) ports
// without configuring hosts (DESIGN.md §2). Repairs is the §2.1.4 repair
// queue every All-Path bridge parks its table misses in (DESIGN.md §10).
package bridge

import (
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Protocol is the per-frame logic a concrete bridge plugs into its Chassis.
// All callbacks run on the simulation goroutine.
type Protocol interface {
	// OnFrame handles a received frame that the chassis did not consume
	// (everything except HELLOs). The frame follows the netsim borrow
	// contract: valid until return, Retain to keep, and its FrameView is
	// already decoded — protocols should not re-parse the headers.
	OnFrame(in *netsim.Port, f *netsim.Frame)
	// OnPortStatus reports a link transition after the chassis has updated
	// its own bookkeeping.
	OnPortStatus(p *netsim.Port, up bool)
	// OnStart runs once when the bridge is started, before any traffic.
	OnStart()
}

// Chassis implements netsim.Node on behalf of a bridge protocol. A bridge
// embeds it by value and builds it in place (Init), so the fields every
// frame reads — dispatch, clock, the hairpin rule's peers and the flood's
// ports, with inline storage for the first four of each — share the
// bridge's one allocation. Never copy a Chassis once Init has run: its
// slices point into itself.
type Chassis struct {
	proto Protocol
	sched *sim.Proc
	peers []peer // what HELLOs taught about each port, indexed by Port.Index()
	ports []*netsim.Port

	peerBuf [4]peer
	portBuf [4]*netsim.Port

	net   *netsim.Network
	name  string
	numID int
	mac   layers.MAC

	// HelloEnabled turns on neighbour discovery. ARP-Path bridges enable
	// it; the STP and learning baselines do not need it.
	HelloEnabled bool

	rng   sim.Stream // PathCtl nonces
	stats ChassisStats
	ctl   *ctlScratch // made by the first CtlFrame
}

// ctlScratch is what CtlFrame serializes through: the buffer and the two
// layers it writes, so a control frame allocates nothing once the buffer
// has grown to size.
type ctlScratch struct {
	buf layers.SerializeBuffer
	eth layers.Ethernet
	msg layers.PathCtl
}

// peer is one port's neighbour-discovery state: whether a HELLO was seen
// since the last down transition, and the bridge ID it carried. The port
// predicates below read it by the port's cabling index — the chassis's own
// ports only — so the hairpin rule on the forwarding path costs two slice
// loads, not two pointer-keyed map probes.
type peer struct {
	id    uint64
	trunk bool
}

// ChassisStats counts chassis-level events.
type ChassisStats struct {
	HellosSent     uint64
	HellosReceived uint64
	Flooded        uint64 // frames flooded by FloodExcept
}

// Init builds, in place, the chassis of the named bridge. numID seeds the
// bridge MAC (layers.BridgeMAC) and the PathCtl bridge identifier.
func (c *Chassis) Init(net *netsim.Network, name string, numID int, proto Protocol) {
	*c = Chassis{
		proto: proto,
		net:   net,
		name:  name,
		numID: numID,
		mac:   layers.BridgeMAC(numID),
		rng:   sim.Bridges.Stream(net.Seed(), numID),
	}
	c.peers, c.ports = c.peerBuf[:0], c.portBuf[:0]
}

// Name implements netsim.Node.
func (c *Chassis) Name() string { return c.name }

// MAC returns the bridge's own address (source of HELLO/PathFail frames).
func (c *Chassis) MAC() layers.MAC { return c.mac }

// NumID returns the numeric bridge identifier.
func (c *Chassis) NumID() int { return c.numID }

// Net returns the owning network.
func (c *Chassis) Net() *netsim.Network { return c.net }

// Sched returns the bridge's scheduling identity: every timer and event a
// bridge protocol creates must go through it so the event order stays
// independent of how the fabric is sharded (sim.Proc). Resolved lazily —
// the topology builder registers the bridge with the network after the
// chassis is constructed.
func (c *Chassis) Sched() *sim.Proc {
	if c.sched == nil {
		c.sched = c.net.Proc(c.name)
	}
	return c.sched
}

// After schedules fn d from now under the bridge's identity.
func (c *Chassis) After(d time.Duration, fn func()) *sim.Timer {
	return c.Sched().After(d, fn)
}

// Stream returns the bridge's own random stream (PathCtl nonces). A
// per-bridge stream, rather than the engine's, keeps draws a function of
// this bridge's history alone, which the sharded engine's determinism
// depends on.
func (c *Chassis) Stream() *sim.Stream { return &c.rng }

// Now returns the current virtual time as this bridge observes it: its
// own shard's clock. (The network's control clock only advances at
// barriers, so reading it from inside a lookahead window would freeze
// every lazy expiry check for the window's duration.)
func (c *Chassis) Now() time.Duration { return c.Sched().Now() }

// Stats returns a snapshot of the chassis counters.
func (c *Chassis) Stats() ChassisStats { return c.stats }

// AttachPort implements netsim.Node.
func (c *Chassis) AttachPort(p *netsim.Port) {
	if p.Index() != len(c.ports) {
		panic("bridge: ports must attach in cabling-index order")
	}
	c.ports = append(c.ports, p)
	c.peers = append(c.peers, peer{})
}

// Ports returns the bridge's ports in cabling order.
func (c *Chassis) Ports() []*netsim.Port { return c.ports }

// Port returns the i-th port.
func (c *Chassis) Port(i int) *netsim.Port { return c.ports[i] }

// Start announces the bridge: it runs the protocol's OnStart and sends the
// initial HELLO burst. Call once after cabling, before running the
// simulation (the topology builder does this).
func (c *Chassis) Start() {
	c.Sched().At(c.net.Now(), func() {
		c.proto.OnStart()
		if c.HelloEnabled {
			c.sendHellos(c.ports...)
		}
	})
}

// Restart models a chassis power-cycle: everything learned from the wire
// (trunk/edge classification, neighbour identities) is forgotten. It does
// not re-HELLO by itself — a real reboot drops carrier, and the caller's
// link bounce re-sends HELLOs from both ends via PortStatusChanged, which
// is the only way the *peer* learns anything happened (a one-sided burst
// would be dropped by the bounce anyway). Protocol-level state loss is
// the protocol's job — see core.Bridge.Restart, which calls this and then
// BounceLinks.
func (c *Chassis) Restart() {
	clear(c.peers)
}

// BounceLinks drops and restores carrier on every attached link that is
// up: the second half of a power-cycle for the protocols that model one
// (the All-Path bridges). It is not part of Restart because the learning
// and STP baselines inherit Restart and must not start bouncing links.
func (c *Chassis) BounceLinks() {
	for _, p := range c.ports {
		if l := p.Link(); l.Up() {
			l.SetUp(false)
			l.SetUp(true)
		}
	}
}

// IsTrunk reports whether p faces another bridge (a HELLO was seen since
// the last down transition). Meaningless unless HelloEnabled.
func (c *Chassis) IsTrunk(p *netsim.Port) bool { return c.peers[p.Index()].trunk }

// IsEdge reports whether p faces a host.
func (c *Chassis) IsEdge(p *netsim.Port) bool { return !c.peers[p.Index()].trunk }

// Neighbor returns the bridge ID learned from HELLOs on trunk port p.
// Two ports with the same neighbor are parallel links to one bridge —
// forwarding a frame "back" over a parallel link is still a hairpin.
func (c *Chassis) Neighbor(p *netsim.Port) (uint64, bool) {
	pe := c.peers[p.Index()]
	return pe.id, pe.trunk
}

// SameNeighbor reports whether two ports lead to the same neighbouring
// bridge (the same port, or parallel trunks, which a port comparison
// alone cannot see on multigraphs). Every protocol's hairpin rule goes
// through this one definition.
//
//fabric:hotpath
func (c *Chassis) SameNeighbor(p, q *netsim.Port) bool {
	if p == q {
		return true
	}
	pp, qp := c.peers[p.Index()], c.peers[q.Index()]
	return pp.trunk && qp.trunk && pp.id == qp.id
}

// HandleFrame implements netsim.Node: HELLOs are consumed here, everything
// else goes to the protocol. The frame's pre-decoded view makes the HELLO
// check a pair of field reads instead of a parse.
//
//fabric:hotpath
func (c *Chassis) HandleFrame(p *netsim.Port, f *netsim.Frame) {
	if v := f.View(); v.IsHello() {
		c.stats.HellosReceived++
		c.peers[p.Index()] = peer{id: v.Ctl.BridgeID, trunk: true}
		return
	}
	c.proto.OnFrame(p, f)
}

// PortStatusChanged implements netsim.Node.
func (c *Chassis) PortStatusChanged(p *netsim.Port, up bool) {
	if !up {
		// The neighbour may be replaced while the link is down; rediscover.
		c.peers[p.Index()] = peer{}
	} else if c.HelloEnabled {
		c.sendHellos(p)
	}
	c.proto.OnPortStatus(p, up)
}

// CtlFrame serializes one ARP-Path control frame from ethSrc to ethDst,
// stamping this bridge's id into msg. Every PathCtl message a bridge
// originates — HELLO, PathFail, PathRequest, PathReply — is built here,
// into one scratch buffer the chassis owns: the bytes are valid until the
// next CtlFrame call, which is long enough for Port.Send and
// FloodBytesExcept, the only consumers, as both copy them into a pooled
// frame before returning.
func (c *Chassis) CtlFrame(ethDst, ethSrc layers.MAC, msg layers.PathCtl) []byte {
	s := c.ctl
	if s == nil {
		s = new(ctlScratch)
		c.ctl = s
	}
	s.eth = layers.Ethernet{Dst: ethDst, Src: ethSrc, EtherType: layers.EtherTypePathCtl}
	s.msg = msg
	s.msg.BridgeID = uint64(c.numID)
	if err := layers.SerializeLayers(&s.buf, layers.FixAll, &s.eth, &s.msg); err != nil {
		panic("bridge: serialize " + msg.Type.String() + ": " + err.Error())
	}
	return s.buf.Bytes()
}

// sendHellos emits one HELLO on each of ps, serialized once: the bytes do
// not depend on the port, and Port.Send copies them.
func (c *Chassis) sendHellos(ps ...*netsim.Port) {
	hello := c.CtlFrame(layers.PathCtlMulticast, c.mac, layers.PathCtl{Type: layers.PathCtlHello})
	for _, p := range ps {
		c.stats.HellosSent++
		p.Send(hello)
	}
}

// FloodExcept sends f on every up port except in (which may be nil to
// flood everywhere) without copying — every egress shares the one pooled
// buffer. Ports transmit in cabling order, keeping the race between
// flooded copies deterministic for a given topology and seed.
//
//fabric:hotpath
func (c *Chassis) FloodExcept(in *netsim.Port, f *netsim.Frame) {
	for _, p := range c.ports {
		if p != in && p.Up() {
			p.SendFrame(f)
			c.stats.Flooded++
		}
	}
}

// FloodBytesExcept wraps a locally built frame in one pooled buffer and
// floods it (the origination-side counterpart of FloodExcept).
func (c *Chassis) FloodBytesExcept(in *netsim.Port, frame []byte) {
	f := c.net.NewFrame(frame)
	c.FloodExcept(in, f)
	f.Release()
}
