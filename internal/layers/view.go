package layers

// FrameView is the parse-once decoded view of a frame: a flat struct of
// typed fields with no pointers into (or out of) the backing array. The
// simulator decodes a FrameView once when a frame enters the network and
// the view then rides along with the pooled frame buffer, so a frame
// crossing N bridges is parsed once instead of N times — every field a
// forwarding decision needs (addresses, EtherType, ARP operation, the
// full ARP-Path control message) is already broken out.
//
// The view holds what bridges inspect. Hosts read it for the addresses,
// the EtherType and the ARP packet, and they and the tools decode every
// other layer (IPv4 and the transports) with the per-layer codecs.
type FrameView struct {
	// OK is set when the Ethernet header was present. A view with OK
	// false has no other valid field.
	OK        bool
	Dst, Src  MAC
	EtherType EtherType
	// SrcKey and DstKey are the uint64-packed addresses (MAC.Uint64),
	// precomputed because they key every bridge table lookup on the path.
	SrcKey, DstKey uint64

	// HasARP is set when the payload decoded as an Ethernet/IPv4 ARP
	// packet; ARP then holds it.
	HasARP bool
	ARP    ARP

	// HasCtl is set when the payload decoded as an ARP-Path control
	// message; Ctl then holds it.
	HasCtl bool
	Ctl    PathCtl

	// HasIP is set when the payload decoded as an options-free IPv4
	// header with a valid checksum; the address/protocol fields then
	// hold. Only the fields a forwarding decision can key on are broken
	// out — the view stays a flat, comparable struct with no slices.
	HasIP        bool
	IPSrc, IPDst Addr4
	IPProto      uint8

	// HasTCP is set when the IPv4 payload decoded as a TCP-lite segment;
	// the 4-tuple ports and flag bits then hold. TCP-Path bridges key
	// per-connection paths on (IPSrc, IPDst, TCPSrcPort, TCPDstPort).
	HasTCP                 bool
	TCPSrcPort, TCPDstPort uint16
	TCPFlags               uint8
}

// Decode resets v from frame. It never allocates; undecodable inner
// layers simply leave their Has flag clear.
//
//fabric:hotpath
func (v *FrameView) Decode(frame []byte) {
	*v = FrameView{}
	if len(frame) < EthernetHeaderLen {
		return
	}
	var eth Ethernet
	if eth.DecodeFromBytes(frame) != nil {
		return
	}
	v.OK = true
	v.Dst, v.Src, v.EtherType = eth.Dst, eth.Src, eth.EtherType
	v.SrcKey, v.DstKey = eth.Src.Uint64(), eth.Dst.Uint64()
	switch eth.EtherType {
	case EtherTypeARP:
		v.HasARP = v.ARP.DecodeFromBytes(eth.Payload()) == nil
	case EtherTypePathCtl:
		v.HasCtl = v.Ctl.DecodeFromBytes(eth.Payload()) == nil
	case EtherTypeIPv4:
		var ip IPv4
		if ip.DecodeFromBytes(eth.Payload()) != nil {
			return
		}
		v.HasIP = true
		v.IPSrc, v.IPDst, v.IPProto = ip.Src, ip.Dst, ip.Protocol
		if ip.Protocol == IPProtoTCPLite {
			var tcp TCPLite
			if tcp.DecodeFromBytes(ip.Payload()) == nil {
				v.HasTCP = true
				v.TCPSrcPort, v.TCPDstPort = tcp.SrcPort, tcp.DstPort
				v.TCPFlags = tcp.Flags
			}
		}
	}
}

// IsMulticast reports whether the frame is group-addressed (the branch
// every bridge takes first).
func (v *FrameView) IsMulticast() bool { return v.Dst.IsMulticast() }

// IsHello reports whether the frame is a HELLO on the reserved bridge
// multicast — the chassis consumes these before the protocol sees them.
func (v *FrameView) IsHello() bool {
	return v.HasCtl && v.Ctl.Type == PathCtlHello && v.Dst == PathCtlMulticast
}

// IsTCPSYN reports whether the frame is the opening segment of a TCP-lite
// connection (SYN set, ACK clear) — the frame TCP-Path floods to race a
// fresh per-connection path.
func (v *FrameView) IsTCPSYN() bool {
	return v.HasTCP && v.TCPFlags&TCPFlagSYN != 0 && v.TCPFlags&TCPFlagACK == 0
}

// OpensPath reports whether the frame is one whose flood creates or
// refreshes paths: an ARP Request or a PathRequest (§2.1.3: "other
// multicast and broadcast frames do not establish new paths").
func (v *FrameView) OpensPath() bool {
	if v.HasARP {
		return v.ARP.Operation == ARPRequest
	}
	return v.HasCtl && v.Ctl.Type == PathCtlRequest
}

// ConfirmsPath reports whether the frame is a unicast that confirms a
// path as it retraces the winning flood copy: an ARP Reply or a PathReply
// (§2.1.2).
func (v *FrameView) ConfirmsPath() bool {
	if v.HasARP {
		return v.ARP.Operation == ARPReply
	}
	return v.HasCtl && v.Ctl.Type == PathCtlReply
}
