package host

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/layers"
	"repro/internal/netsim"
)

// decodeTransport decodes frame down the Ethernet → IPv4 codec chain and
// then into layer. It reports the frame's source MAC, and whether every
// step decoded with the IPv4 protocol proto.
func decodeTransport(frame []byte, proto uint8, layer layers.DecodingLayer) (layers.MAC, bool) {
	var eth layers.Ethernet
	var ip layers.IPv4
	if eth.DecodeFromBytes(frame) != nil || eth.EtherType != layers.EtherTypeIPv4 ||
		ip.DecodeFromBytes(eth.Payload()) != nil || ip.Protocol != proto {
		return layers.MAC{}, false
	}
	return eth.Src, layer.DecodeFromBytes(ip.Payload()) == nil
}

// decodeEcho decodes frame as an ICMP echo message.
func decodeEcho(frame []byte) (*layers.ICMPEcho, bool) {
	var echo layers.ICMPEcho
	_, ok := decodeTransport(frame, layers.IPProtoICMP, &echo)
	return &echo, ok
}

// TestICMPPayloadEchoedIntact: the echo reply must carry the request's
// payload back byte for byte (RFC 792).
func TestICMPPayloadEchoedIntact(t *testing.T) {
	net, h1, h2 := pair(9)
	// Capture the reply frame on the wire to inspect its payload.
	var replyPayload []byte
	net.Tap(func(ev netsim.TapEvent) {
		if ev.Kind != netsim.TapDeliver || layers.FrameDst(ev.Frame) != h1.MAC() {
			return
		}
		if echo, ok := decodeEcho(ev.Frame); ok && echo.Type == layers.ICMPEchoReply {
			replyPayload = append([]byte(nil), echo.Payload()...)
		}
	})
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 64, time.Second, func(PingResult) {})
	})
	net.RunFor(time.Second)
	if len(replyPayload) != 64 {
		t.Fatalf("reply payload = %d bytes, want 64", len(replyPayload))
	}
	if !bytes.Equal(replyPayload, make([]byte, 64)) {
		t.Fatal("payload corrupted in echo")
	}
}

// TestEchoReplySurvivesARPMiss is the use-after-release regression: the
// responder has no ARP entry for the requester, so the reply waits in the
// resolution queue while the borrowed request frame is released and its
// pooled buffer recycled by unrelated traffic. The queued reply must own
// its payload — it used to alias the recycled buffer and echo some other
// frame's bytes (and, sharded, race with the frame's next writer).
func TestEchoReplySurvivesARPMiss(t *testing.T) {
	net := netsim.NewNetwork(3)
	h1, h2 := New(net, "h1", 1), New(net, "h2", 2)
	net.Connect(h1, h2, netsim.DefaultLinkConfig())

	pattern := make([]byte, 256)
	for i := range pattern {
		pattern[i] = byte(i*7 + 1)
	}
	var reply []byte
	net.Tap(func(ev netsim.TapEvent) {
		if echo, ok := decodeEcho(ev.Frame); ev.Kind == netsim.TapDeliver && ok && echo.Type == layers.ICMPEchoReply {
			reply = append([]byte(nil), echo.Payload()...)
		}
	})
	raw := func(proto uint8, ls ...layers.SerializableLayer) []byte {
		frame, err := layers.Serialize(append([]layers.SerializableLayer{
			&layers.Ethernet{Dst: h2.MAC(), Src: h1.MAC(), EtherType: layers.EtherTypeIPv4},
			&layers.IPv4{TTL: 64, Protocol: proto, Src: h1.IP(), Dst: h2.IP()},
		}, ls...)...)
		if err != nil {
			t.Fatal(err)
		}
		return frame
	}
	echo := raw(layers.IPProtoICMP,
		&layers.ICMPEcho{Type: layers.ICMPEchoRequest, Ident: 7, Seq: 1}, layers.Payload(pattern))
	junk := raw(253, layers.Payload(bytes.Repeat([]byte{0xEE}, 512)))

	// Warm h1's side only: it must answer h2's ARP request, while h2
	// (cache flushed) has to resolve h1 before it can reply.
	h1.Ping(h2.IP(), 0, time.Second, func(PingResult) {})
	net.Run()
	h2.ARP().Flush()

	start := net.Now()
	net.Engine.At(start, func() { h1.Port().Send(echo) })
	// The echo lands (and its frame is released) ~7µs in; h2's ARP exchange
	// completes ~12µs after that. Junk frames created in between take the
	// recycled buffers.
	for i := 0; i < 8; i++ {
		net.Engine.At(start+8*time.Microsecond+time.Duration(i)*100*time.Nanosecond, func() { h1.Port().Send(junk) })
	}
	net.Run()
	if h2.Stats().ARPRequestsTx == 0 {
		t.Fatal("fixture broken: the responder never missed its ARP cache")
	}
	if !bytes.Equal(reply, pattern) {
		t.Fatalf("echo reply payload corrupted across the ARP miss: got %d bytes, first %x", len(reply), reply[:min(len(reply), 8)])
	}
}

// TestPendingARPQueueBound: callbacks beyond the pending limit are
// dropped and counted rather than queued without bound.
func TestPendingARPQueueBound(t *testing.T) {
	net, h1, _ := pair(10)
	net.Engine.At(net.Now(), func() {
		for i := 0; i < arpPendingLimit+10; i++ {
			h1.arp.resolve(layers.HostIP(99), func(layers.MAC, error) {})
		}
	})
	net.RunFor(10 * time.Second)
	if h1.Stats().DroppedPendingARP != 10 {
		t.Fatalf("DroppedPendingARP = %d, want 10", h1.Stats().DroppedPendingARP)
	}
}

// TestHostIgnoresForeignAndBridgeTraffic: frames not addressed to the
// host, and bridge control frames, are filtered at the NIC and never
// disturb the stack.
func TestHostIgnoresForeignAndBridgeTraffic(t *testing.T) {
	net := netsim.NewNetwork(1)
	h := New(net, "h", 1)
	peer := New(net, "peer", 2)
	net.Connect(h, peer, netsim.DefaultLinkConfig())
	net.Engine.At(0, func() {
		foreign, _ := layers.Serialize(
			&layers.Ethernet{Dst: layers.HostMAC(9), Src: peer.MAC(), EtherType: layers.EtherTypeIPv4},
			layers.Payload([]byte{1}),
		)
		peer.Port().Send(foreign)
		ctl, _ := layers.Serialize(
			&layers.Ethernet{Dst: layers.BroadcastMAC, Src: peer.MAC(), EtherType: layers.EtherTypePathCtl},
			&layers.PathCtl{Type: layers.PathCtlRequest, Src: peer.MAC(), Dst: layers.HostMAC(9)},
		)
		peer.Port().Send(ctl)
	})
	net.Run()
	if h.Stats().DroppedForeignFrames != 1 {
		t.Fatalf("foreign frames dropped = %d, want 1", h.Stats().DroppedForeignFrames)
	}
	if h.Stats().DroppedUnknownProto != 1 {
		t.Fatalf("bridge traffic dropped = %d, want 1", h.Stats().DroppedUnknownProto)
	}
}

// TestMalformedFramesDontPanicHost: garbage on the wire must be shrugged
// off by every layer of the host stack.
func TestMalformedFramesDontPanicHost(t *testing.T) {
	net := netsim.NewNetwork(1)
	h := New(net, "h", 1)
	peer := New(net, "peer", 2)
	net.Connect(h, peer, netsim.DefaultLinkConfig())
	rng := net.Engine.Stream().Rand()
	net.Engine.At(0, func() {
		for i := 0; i < 50; i++ {
			frame := make([]byte, 14+rng.Intn(100))
			rng.Read(frame)
			copy(frame[0:6], h.MAC().String()) // garbage dst most of the time
			if i%3 == 0 {
				m := h.MAC()
				copy(frame[0:6], m[:]) // sometimes correctly addressed garbage
			}
			peer.Port().Send(frame)
		}
	})
	net.Run() // a panic would fail the test
}

// TestTCPWindowNeverExceeded: the sender keeps its in-flight data within
// the peer's advertised window at all times, observed on the wire. The
// link's queue holds 4 MiB, so no loss stops the sender and cwnd grows past
// the window: only the window can hold the flight back, and it must fill.
func TestTCPWindowNeverExceeded(t *testing.T) {
	net := netsim.NewNetwork(11)
	h1, h2 := New(net, "h1", 1), New(net, "h2", 2)
	link := netsim.DefaultLinkConfig()
	link.Queue = 4 << 20
	net.Connect(h1, h2, link)
	var acked uint32 // the highest ACK h1 has received from h2
	maxFlight := 0
	net.Tap(func(ev netsim.TapEvent) {
		var tcp layers.TCPLite
		src, ok := decodeTransport(ev.Frame, layers.IPProtoTCPLite, &tcp)
		switch {
		case !ok:
		case ev.Kind == netsim.TapDeliver && src == h2.MAC() && tcp.HasFlag(layers.TCPFlagACK):
			if acked == 0 || int32(tcp.Ack-acked) > 0 {
				acked = tcp.Ack
			}
		case ev.Kind == netsim.TapSend && src == h1.MAC() && len(tcp.Payload()) > 0:
			flight := int(int32(tcp.Seq + uint32(len(tcp.Payload())) - acked))
			if flight > rcvWindow {
				t.Fatalf("%d bytes in flight, window %d", flight, rcvWindow)
			}
			maxFlight = max(maxFlight, flight)
		}
	})
	done := false
	h2.Listen(80, func(c *Conn) {
		c.OnData = func([]byte) {}
		c.OnClose = func() { done = true }
	})
	net.Engine.At(net.Now(), func() {
		h1.Dial(h2.IP(), 80, func(c *Conn) {
			c.Write(make([]byte, 1<<20))
			c.Close()
		})
	})
	net.RunFor(time.Minute)
	if !done {
		t.Fatal("transfer incomplete")
	}
	if maxFlight < rcvWindow-mss {
		t.Fatalf("at most %d bytes in flight: the window %d never filled", maxFlight, rcvWindow)
	}
	t.Logf("%d of %d bytes in flight at most", maxFlight, rcvWindow)
}

// TestUDPBroadcastNotRouted: a datagram to 255.255.255.255 reaches the
// link's hosts without ARP.
func TestUDPBroadcastLocal(t *testing.T) {
	net := netsim.NewNetwork(1)
	h1 := New(net, "h1", 1)
	h2 := New(net, "h2", 2)
	net.Connect(h1, h2, netsim.DefaultLinkConfig())
	got := 0
	h2.UDP(6000, func(Datagram) { got++ })
	net.Engine.At(0, func() {
		// Hand-build the broadcast (the resolver would try to ARP for it;
		// real stacks special-case the broadcast address as we do here).
		frame, _ := layers.Serialize(
			&layers.Ethernet{Dst: layers.BroadcastMAC, Src: h1.MAC(), EtherType: layers.EtherTypeIPv4},
			&layers.IPv4{TTL: 1, Protocol: layers.IPProtoUDP, Src: h1.IP(), Dst: layers.Addr4{255, 255, 255, 255}},
			&layers.UDP{SrcPort: 6001, DstPort: 6000, SrcIP: h1.IP(), DstIP: layers.Addr4{255, 255, 255, 255}},
			layers.Payload([]byte("hello")),
		)
		h1.Port().Send(frame)
	})
	net.Run()
	if got != 1 {
		t.Fatalf("broadcast datagrams received = %d, want 1", got)
	}
}

// TestUDPSendIntoARPMissKeepsItsOwnLayers: a datagram sent before the
// destination resolves waits in the ARP queue, and the same socket sends
// again — other destination port, other bytes, the caller's buffer reused
// — before the reply lands. The socket's resolved path serializes from
// per-socket scratch values; the queued datagram must not be looking at
// them (or at the caller's buffer) when it is finally serialized.
func TestUDPSendIntoARPMissKeepsItsOwnLayers(t *testing.T) {
	net, h1, h2 := pair(12)
	got := map[uint16][]string{}
	for _, port := range []uint16{6000, 6001} {
		h2.UDP(port, func(d Datagram) { got[port] = append(got[port], string(d.Data)) })
	}
	s := h1.UDP(5000, nil)
	buf := []byte("first")
	net.Engine.At(net.Now(), func() {
		s.SendTo(h2.IP(), 6000, buf)
		copy(buf, "FIRST") // the caller's buffer is its own again once SendTo returns
		s.SendTo(h2.IP(), 6001, []byte("second, longer"))
	})
	net.Run()
	if h1.Stats().ARPRequestsTx != 1 {
		t.Fatalf("fixture broken: %d ARP requests, want both datagrams behind one miss", h1.Stats().ARPRequestsTx)
	}
	if len(got[6000]) != 1 || got[6000][0] != "first" || len(got[6001]) != 1 || got[6001][0] != "second, longer" {
		t.Fatalf("delivered %q, want port 6000 ← \"first\", port 6001 ← \"second, longer\"", got)
	}

	// Resolved now: the third datagram takes the scratch path, and a
	// fourth right behind it must not disturb it either.
	net.Engine.At(net.Now(), func() {
		s.SendTo(h2.IP(), 6001, []byte("third"))
		s.SendTo(h2.IP(), 6000, []byte("fourth"))
	})
	net.Run()
	if len(got[6001]) != 2 || got[6001][1] != "third" || len(got[6000]) != 2 || got[6000][1] != "fourth" {
		t.Fatalf("delivered %q after resolution", got)
	}
}

// TestUDPResolvedSendAllocations: with the destination's MAC cached, a
// datagram costs one allocation end to end, the receiving socket's private
// copy of the payload. The header and the boxed payload a send used to
// allocate live in the socket, and the host's serialize buffer stops
// growing once it has seen one datagram of this size — 64 bytes, which
// fills the buffer's default headroom and used to regrow it per send.
func TestUDPResolvedSendAllocations(t *testing.T) {
	net, h1, h2 := pair(11)
	s := h1.UDP(5000, nil)
	received := 0
	h2.UDP(6000, func(Datagram) { received++ })
	h1.Ping(h2.IP(), 0, time.Second, func(PingResult) {})
	net.Run()
	payload := make([]byte, 64)
	const runs = 1000
	avg := testing.AllocsPerRun(runs, func() {
		s.SendTo(h2.IP(), 6000, payload)
		net.Run()
	})
	if received != runs+1 { // AllocsPerRun warms up with one extra call
		t.Fatalf("%d of %d datagrams delivered", received, runs+1)
	}
	if avg > 1 {
		t.Fatalf("a resolved SendTo allocates %.1f per datagram, want at most the receiver's copy", avg)
	}
}

// TestPortZeroAndEphemeralPorts: UDP port 0 is an unbound transmit-only
// socket — any number coexist and their datagrams carry source port 0;
// Listen(0) and a dialler's local port share one ephemeral walk that skips
// what is live and, once the whole range is, refuses instead of
// overwriting; a listener's Close removes only its own entry.
func TestPortZeroAndEphemeralPorts(t *testing.T) {
	net, h1, h2 := pair(1)
	var rx []Datagram
	h2.UDP(9000, func(d Datagram) { rx = append(rx, d) })
	s1, s2 := h1.UDP(0, nil), h1.UDP(0, nil)
	net.Engine.At(net.Now(), func() {
		s1.SendTo(h2.IP(), 9000, []byte("a"))
		s2.SendTo(h2.IP(), 9000, []byte("b"))
	})
	net.RunFor(time.Second)
	s1.Close()
	if len(rx) != 2 || rx[0].SrcPort != 0 || rx[1].SrcPort != 0 {
		t.Fatalf("rx = %+v, want two datagrams from port 0", rx)
	}

	first := h1.Listen(0, func(*Conn) {})
	if first.Port() != 49152 {
		t.Fatalf("first ephemeral listener on %d, want 49152", first.Port())
	}
	c := h1.Dial(h2.IP(), 80, nil) // shares the counter: 49153
	if c.key.lport != 49153 {
		t.Fatalf("dial from %d, want 49153", c.key.lport)
	}
	first.Close()
	reuse := h1.Listen(49152, func(*Conn) {})
	first.Close() // stale handle: must not unbind its successor
	if h1.tcp.listeners[49152] != reuse {
		t.Fatal("a stale Close removed the port's later listener")
	}
	// Walk the counter round: 49152 (listening) and 49153 (the live
	// connection's key) are skipped by the kind of user they are taken for.
	h1.tcp.nextPort = 49152
	if l := h1.Listen(0, func(*Conn) {}); l.Port() != 49153 {
		t.Fatalf("Listen(0) took %d, want 49153 (49152 is listening)", l.Port())
	}
	h1.tcp.nextPort = 49153
	if d := h1.Dial(h2.IP(), 80, nil); d.key.lport != 49154 {
		t.Fatalf("dial took %d, want 49154 (49153 holds a live connection to the same peer)", d.key.lport)
	}
	for p := 49152; p <= 0xffff; p++ {
		if h1.tcp.listeners[uint16(p)] == nil {
			h1.Listen(uint16(p), func(*Conn) {})
		}
	}
	if l := h1.Listen(0, func(*Conn) {}); l != nil {
		t.Fatalf("Listen(0) with every ephemeral port listening returned port %d, want nil", l.Port())
	}
}

// TestIdleHostBuildsNoState: a host that never binds, listens, dials or
// pings builds none of its maps. Two such hosts here hear another's ARP
// floods, answer its echo requests, and are sent a datagram to an unbound
// port and a SYN nobody listens for; they hold their learned bindings and
// nothing else.
func TestIdleHostBuildsNoState(t *testing.T) {
	net := netsim.NewNetwork(1)
	h1, h2, h3 := New(net, "h1", 1), New(net, "h2", 2), New(net, "h3", 3)
	b := core.New(net, "b", 1, core.DefaultConfig())
	for _, h := range []*Host{h1, h2, h3} {
		net.Connect(h, b, netsim.DefaultLinkConfig())
	}
	b.Start()
	net.RunFor(time.Millisecond)
	replies := 0
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 8, time.Second, func(r PingResult) {
			if r.Err == nil {
				replies++
			}
		})
		h1.Ping(h3.IP(), 8, time.Second, func(r PingResult) {
			if r.Err == nil {
				replies++
			}
		})
		h1.UDP(0, nil).SendTo(h3.IP(), 7, []byte("x"))
		h1.Dial(h3.IP(), 80, nil)
	})
	net.RunFor(100 * time.Millisecond)
	if replies != 2 {
		t.Fatalf("%d of 2 pings answered", replies)
	}
	for _, h := range []*Host{h2, h3} {
		if h.udp != nil || h.arp.pending != nil || h.icmp.waiting != nil || h.tcp.listeners != nil || h.tcp.conns != nil {
			t.Errorf("%s built state it never used: udp %v, pending %v, waiting %v, listeners %v, conns %v",
				h.name, h.udp, h.arp.pending, h.icmp.waiting, h.tcp.listeners, h.tcp.conns)
		}
		if h.ARP().Len() == 0 {
			t.Errorf("%s learned no binding from the floods it heard", h.name)
		}
	}
}
