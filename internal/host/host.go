// Package host implements the simulated end stations of the demo: an
// unmodified Ethernet/ARP/IPv4 stack with ICMP echo, UDP sockets and the
// TCP-lite reliable transport. Hosts are deliberately ordinary — the
// paper's central transparency claim (§2.2) is that ARP-Path needs no host
// changes, so everything here is plain textbook networking with no
// knowledge of the bridging protocol underneath.
package host

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Stats counts host-level traffic.
type Stats struct {
	FramesRx             uint64
	ARPRequestsTx        uint64
	ARPFailures          uint64 // resolutions that timed out
	EchoRequestsRx       uint64
	EchoRepliesTx        uint64
	DroppedUnknownProto  uint64
	DroppedPendingARP    uint64 // packets dropped from a full pending queue
	DroppedForeignFrames uint64 // frames not addressed to this host
}

// Host is one simulated end station. It normally has a single NIC; for
// mobility scenarios it may be cabled to several ports with at most one
// link up at a time (a station that re-homes to another edge bridge), and
// it always transmits on its first up port.
type Host struct {
	net   *netsim.Network
	name  string
	mac   layers.MAC
	ip    layers.Addr4
	ports []*netsim.Port

	// A host builds its state on first use: every map in it is nil until
	// its first write (put) and txBuf is made by the first resolved send,
	// so a host that only hears floods and answers ARP holds its bindings
	// and nothing else.
	proc  *sim.Proc
	rng   sim.Stream // TCP ISNs
	arp   arpCache
	udp   map[uint16]*UDPSocket
	stats Stats

	// Reusable transmit scratch for the cached-resolution fast path of
	// sendIP. Safe to share across sends: serialization is synchronous and
	// Port.Send copies the bytes into a pooled frame before returning.
	txBuf *layers.SerializeBuffer
	txEth layers.Ethernet
	txIP  layers.IPv4
	txLs  [6]layers.SerializableLayer

	icmp icmpEndpoint
	tcp  tcpHost
}

// New creates host number n named name: MAC 02:00:00::n, IP 10.0.n.
func New(net *netsim.Network, name string, n int) *Host {
	h := &Host{
		net:  net,
		name: name,
		mac:  layers.HostMAC(n),
		ip:   layers.HostIP(n),
		rng:  sim.Hosts.Stream(net.Seed(), n),
	}
	h.arp = arpCache{h: h}
	h.icmp = icmpEndpoint{h: h, ident: uint16(h.mac.Uint64() & 0xFFFF)}
	h.tcp = tcpHost{h: h, nextPort: 49152}
	net.AddNode(h)
	h.proc = net.Proc(name)
	return h
}

// put sets (*m)[k] = v, making the map on its first write.
func put[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// Name implements netsim.Node.
func (h *Host) Name() string { return h.name }

// MAC returns the host's hardware address.
func (h *Host) MAC() layers.MAC { return h.mac }

// IP returns the host's IPv4 address.
func (h *Host) IP() layers.Addr4 { return h.ip }

// Net returns the owning network.
func (h *Host) Net() *netsim.Network { return h.net }

// Stream returns the host's random stream (TCP ISNs).
func (h *Host) Stream() *sim.Stream { return &h.rng }

// Stats returns a snapshot of the traffic counters.
func (h *Host) Stats() Stats { return h.stats }

// ARP returns the host's ARP resolver (exposed for experiments measuring
// cache behaviour).
func (h *Host) ARP() *ARPView { return &ARPView{&h.arp} }

// now returns the current virtual time (the host's shard clock).
func (h *Host) now() time.Duration { return h.proc.Now() }

// Now returns the current virtual time as this host observes it —
// application code (internal/host/app) must use this, not the network's
// control clock, which stands still during lookahead windows.
func (h *Host) Now() time.Duration { return h.proc.Now() }

// Sched returns the host's scheduling identity; all host timers go
// through it (sim.Proc), keeping event order shard-independent.
func (h *Host) Sched() *sim.Proc { return h.proc }

// After schedules fn d from now under the host's identity. Application
// code driving a host (internal/host/app) must use this, not the engine.
func (h *Host) After(d time.Duration, fn func()) *sim.Timer {
	return h.proc.After(d, fn)
}

// AttachPort implements netsim.Node.
func (h *Host) AttachPort(p *netsim.Port) { h.ports = append(h.ports, p) }

// Port returns the host's active NIC port: the first attached port whose
// link is up (or the first port if all are down). It panics when the host
// was never cabled.
func (h *Host) Port() *netsim.Port {
	if len(h.ports) == 0 {
		panic(fmt.Sprintf("host %s: no NIC attached", h.name))
	}
	for _, p := range h.ports {
		if p.Up() {
			return p
		}
	}
	return h.ports[0]
}

// PortStatusChanged implements netsim.Node. Hosts keep their state across
// link flaps; TCP retransmission handles the outage.
func (h *Host) PortStatusChanged(_ *netsim.Port, _ bool) {}

// send transmits a fully framed packet on the active port.
func (h *Host) send(frame []byte) {
	h.Port().Send(frame)
}

// HandleFrame implements netsim.Node: the NIC filter plus protocol
// dispatch. The frame is borrowed (netsim ownership contract); the host
// consumes it synchronously, and any payload that outlives this call —
// UDP datagrams handed to sockets — is copied on the way out.
func (h *Host) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	v := f.View()
	if v.Dst != h.mac && !v.Dst.IsBroadcast() {
		h.stats.DroppedForeignFrames++
		return
	}
	h.stats.FramesRx++
	switch v.EtherType {
	case layers.EtherTypeARP:
		if v.HasARP {
			h.arp.handleARP(&v.ARP)
		}
	case layers.EtherTypeIPv4:
		h.handleIPv4(f.Bytes()[layers.EthernetHeaderLen:])
	default:
		// PathCtl, BPDUs, anything else: hosts ignore bridge traffic.
		h.stats.DroppedUnknownProto++
	}
}

// handleIPv4 dispatches a received IPv4 packet (the frame's Ethernet
// payload).
func (h *Host) handleIPv4(packet []byte) {
	var ip layers.IPv4
	if ip.DecodeFromBytes(packet) != nil {
		return
	}
	if ip.Dst != h.ip && !ip.Dst.IsBroadcast() {
		return
	}
	switch ip.Protocol {
	case layers.IPProtoICMP:
		h.icmp.handle(&ip)
	case layers.IPProtoUDP:
		h.handleUDP(&ip)
	case layers.IPProtoTCPLite:
		h.tcp.handle(&ip)
	default:
		h.stats.DroppedUnknownProto++
	}
}

// sendIP resolves dst's MAC and transmits the transport layers under an
// IPv4 header. Packets are queued while resolution is in flight.
//
// The cached-binding case — every packet of an established conversation —
// is sendResolved. The miss path keeps the allocating closure: its
// captures must survive until the ARP exchange completes, so it detaches
// them first — a payload may alias the borrowed frame being answered (an
// echo reply's data) or the caller's buffer, both recycled long before the
// resolution lands. The layers themselves are retained as passed: a caller
// that reuses its header values must not hand them to this path
// (UDPSocket.SendTo).
func (h *Host) sendIP(dst layers.Addr4, proto uint8, transport ...layers.SerializableLayer) {
	if h.sendResolved(dst, proto, transport...) {
		return
	}
	queued := make([]layers.SerializableLayer, len(transport))
	for i, l := range transport {
		if p, ok := l.(layers.Payload); ok {
			l = layers.Payload(bytes.Clone(p))
		}
		queued[i] = l
	}
	h.arp.resolve(dst, func(mac layers.MAC, err error) {
		if err != nil {
			return // resolution failed; transports retransmit on their own
		}
		ls := make([]layers.SerializableLayer, 0, 2+len(queued))
		ls = append(ls,
			&layers.Ethernet{Dst: mac, Src: h.mac, EtherType: layers.EtherTypeIPv4},
			&layers.IPv4{TTL: 64, Protocol: proto, Src: h.ip, Dst: dst},
		)
		ls = append(ls, queued...)
		frame, err := layers.Serialize(ls...)
		if err != nil {
			panic(fmt.Sprintf("host %s: serialize: %v", h.name, err))
		}
		h.send(frame)
	})
}

// sendResolved transmits the transport layers if dst's MAC is cached and
// reports whether it did. It serializes into the host's reusable scratch
// instead of allocating a resolution closure, a layer slice and a fresh
// buffer per packet, and keeps no reference to the layers past the call.
func (h *Host) sendResolved(dst layers.Addr4, proto uint8, transport ...layers.SerializableLayer) bool {
	mac, ok := h.arp.lookup(dst)
	if !ok {
		return false
	}
	h.txEth = layers.Ethernet{Dst: mac, Src: h.mac, EtherType: layers.EtherTypeIPv4}
	h.txIP = layers.IPv4{TTL: 64, Protocol: proto, Src: h.ip, Dst: dst}
	ls := append(h.txLs[:0], &h.txEth, &h.txIP)
	ls = append(ls, transport...)
	if h.txBuf == nil {
		h.txBuf = layers.NewSerializeBuffer()
	}
	if err := layers.SerializeLayers(h.txBuf, layers.FixAll, ls...); err != nil {
		panic(fmt.Sprintf("host %s: serialize: %v", h.name, err))
	}
	h.send(h.txBuf.Bytes())
	return true
}
