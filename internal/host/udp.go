package host

import (
	"fmt"

	"repro/internal/layers"
)

// Datagram is a received UDP payload with its source. Data is a private
// copy the receiver may retain — unless the socket opted into Borrow
// delivery, in which case it aliases the pooled frame and is valid only
// for the duration of the callback.
type Datagram struct {
	SrcIP   layers.Addr4
	SrcPort uint16
	Data    []byte
}

// UDPSocket is a bound UDP port on a host.
type UDPSocket struct {
	h      *Host
	port   uint16
	onRx   func(Datagram)
	borrow bool
	tx     uint64
	// Scratch layers of the resolved send path (SendTo).
	txUDP  layers.UDP
	txData layers.Payload
}

// UDP binds port on the host. onRx is invoked for each received datagram
// on the simulation goroutine; it may be nil for transmit-only sockets.
// Port 0 binds nothing: the socket only transmits, its datagrams carry
// source port 0 (RFC 768's "none"), and any number of them coexist.
// Binding a port that is taken panics.
func (h *Host) UDP(port uint16, onRx func(Datagram)) *UDPSocket {
	s := &UDPSocket{h: h, port: port, onRx: onRx}
	if port == 0 {
		return s
	}
	if _, taken := h.udp[port]; taken {
		panic(fmt.Sprintf("host %s: UDP port %d already bound", h.name, port))
	}
	put(&h.udp, port, s)
	return s
}

// Close releases the port.
func (s *UDPSocket) Close() { delete(s.h.udp, s.port) }

// Borrow switches the socket to zero-copy delivery: Datagram.Data handed
// to onRx aliases the pooled frame buffer and is valid only until the
// callback returns. Receivers that never retain the payload (counters,
// request/response handlers that answer inline) skip a per-datagram copy
// on the hot path. Returns the socket for chaining at bind time.
func (s *UDPSocket) Borrow() *UDPSocket {
	s.borrow = true
	return s
}

// Port returns the bound local port.
func (s *UDPSocket) Port() uint16 { return s.port }

// Sent returns the number of datagrams transmitted.
func (s *UDPSocket) Sent() uint64 { return s.tx }

// SendTo transmits payload to dst:dstPort. With dst's MAC cached — every
// datagram of an established flow — the header and the payload's layer
// value live in the socket and are serialized before the call returns, so
// nothing is allocated. On an ARP miss the layers wait in the resolution
// queue until the reply lands, possibly behind this socket's next SendTo:
// that path gets a header of its own (and sendIP clones the bytes).
func (s *UDPSocket) SendTo(dst layers.Addr4, dstPort uint16, payload []byte) {
	s.tx++
	s.txUDP = layers.UDP{SrcPort: s.port, DstPort: dstPort, SrcIP: s.h.ip, DstIP: dst}
	s.txData = payload
	if !s.h.sendResolved(dst, layers.IPProtoUDP, &s.txUDP, &s.txData) {
		hdr := s.txUDP
		s.h.sendIP(dst, layers.IPProtoUDP, &hdr, layers.Payload(payload))
	}
}

// handleUDP dispatches a received UDP datagram to its socket.
func (h *Host) handleUDP(ip *layers.IPv4) {
	var u layers.UDP
	if u.DecodeFromBytes(ip.Payload()) != nil {
		return
	}
	if u.VerifyChecksum(ip.Src, ip.Dst) != nil {
		return
	}
	s, ok := h.udp[u.DstPort]
	if !ok {
		h.stats.DroppedUnknownProto++
		return
	}
	if s.onRx != nil {
		// The frame buffer is pooled and recycled after delivery, but
		// sockets routinely retain datagrams past the callback (tests,
		// request/response apps), so hand them a private copy — unless the
		// socket declared itself borrow-safe.
		data := u.Payload()
		if !s.borrow {
			data = append([]byte(nil), data...)
		}
		s.onRx(Datagram{SrcIP: ip.Src, SrcPort: u.SrcPort, Data: data})
	}
}
