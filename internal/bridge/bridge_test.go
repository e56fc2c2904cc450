package bridge

import (
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// stubProto records protocol callbacks.
type stubProto struct {
	frames  int
	status  []bool
	started int
}

func (s *stubProto) OnFrame(_ *netsim.Port, _ *netsim.Frame) { s.frames++ }
func (s *stubProto) OnPortStatus(_ *netsim.Port, up bool)    { s.status = append(s.status, up) }
func (s *stubProto) OnStart()                                { s.started++ }

// stubBridge couples a chassis with a stub protocol as a netsim.Node.
type stubBridge struct {
	Chassis
	proto *stubProto
}

func newStubBridge(net *netsim.Network, name string, id int, hello bool) *stubBridge {
	p := &stubProto{}
	b := &stubBridge{proto: p}
	b.Init(net, name, id, p)
	b.HelloEnabled = hello
	return b
}

// sink is a dumb endpoint that records received frames.
type sink struct {
	name string
	got  [][]byte
	port *netsim.Port
}

func (s *sink) Name() string              { return s.name }
func (s *sink) AttachPort(p *netsim.Port) { s.port = p }
func (s *sink) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	s.got = append(s.got, append([]byte(nil), f.Bytes()...))
}
func (s *sink) PortStatusChanged(_ *netsim.Port, _ bool) {}

func cfg() netsim.LinkConfig { return netsim.DefaultLinkConfig() }

func TestChassisIdentity(t *testing.T) {
	net := netsim.NewNetwork(1)
	b := newStubBridge(net, "br", 7, false)
	if b.Name() != "br" || b.NumID() != 7 || b.MAC() != layers.BridgeMAC(7) {
		t.Fatal("identity mismatch")
	}
	if b.Net() != net {
		t.Fatal("network accessor")
	}
}

func TestStartRunsProtocolOnce(t *testing.T) {
	net := netsim.NewNetwork(1)
	b := newStubBridge(net, "br", 1, false)
	other := newStubBridge(net, "o", 2, false)
	net.Connect(b, other, cfg())
	b.Start()
	net.RunFor(time.Millisecond)
	if b.proto.started != 1 {
		t.Fatalf("OnStart ran %d times", b.proto.started)
	}
}

func TestHelloMarksTrunks(t *testing.T) {
	net := netsim.NewNetwork(1)
	b1 := newStubBridge(net, "b1", 1, true)
	b2 := newStubBridge(net, "b2", 2, true)
	h := &sink{name: "h"}
	net.Connect(b1, b2, cfg())
	net.Connect(b1, h, cfg())
	b1.Start()
	b2.Start()
	net.RunFor(time.Millisecond)
	if !b1.IsTrunk(b1.Port(0)) || b1.IsEdge(b1.Port(0)) {
		t.Fatal("bridge-facing port not marked trunk")
	}
	if b1.IsTrunk(b1.Port(1)) || !b1.IsEdge(b1.Port(1)) {
		t.Fatal("host-facing port marked trunk")
	}
	// HELLOs are consumed by the chassis, never passed to the protocol.
	if b1.proto.frames != 0 {
		t.Fatalf("protocol saw %d frames, want 0", b1.proto.frames)
	}
	if b1.Stats().HellosReceived == 0 || b1.Stats().HellosSent == 0 {
		t.Fatal("hello counters not bumped")
	}
}

func TestHelloDisabledSendsNothing(t *testing.T) {
	net := netsim.NewNetwork(1)
	b1 := newStubBridge(net, "b1", 1, false)
	b2 := newStubBridge(net, "b2", 2, false)
	net.Connect(b1, b2, cfg())
	b1.Start()
	b2.Start()
	net.RunFor(time.Millisecond)
	if b1.Stats().HellosSent != 0 || b2.Stats().HellosReceived != 0 {
		t.Fatal("hello sent despite being disabled")
	}
	if b2.IsTrunk(b2.Port(0)) {
		t.Fatal("trunk marked without hello")
	}
}

func TestTrunkClearedOnLinkDownAndRediscovered(t *testing.T) {
	net := netsim.NewNetwork(1)
	b1 := newStubBridge(net, "b1", 1, true)
	b2 := newStubBridge(net, "b2", 2, true)
	l := net.Connect(b1, b2, cfg())
	b1.Start()
	b2.Start()
	net.RunFor(time.Millisecond)
	if !b1.IsTrunk(b1.Port(0)) {
		t.Fatal("precondition: trunk")
	}
	net.Engine.At(net.Now(), func() { l.SetUp(false) })
	net.RunFor(time.Millisecond)
	if b1.IsTrunk(b1.Port(0)) {
		t.Fatal("trunk flag survived link down")
	}
	net.Engine.At(net.Now(), func() { l.SetUp(true) })
	net.RunFor(time.Millisecond)
	if !b1.IsTrunk(b1.Port(0)) {
		t.Fatal("trunk not rediscovered after link up")
	}
	// Protocol saw both transitions.
	if len(b1.proto.status) != 2 || b1.proto.status[0] || !b1.proto.status[1] {
		t.Fatalf("status callbacks %v", b1.proto.status)
	}
}

func TestFloodExceptSkipsIngressAndDownPorts(t *testing.T) {
	net := netsim.NewNetwork(1)
	b := newStubBridge(net, "b", 1, false)
	s1, s2, s3 := &sink{name: "s1"}, &sink{name: "s2"}, &sink{name: "s3"}
	net.Connect(b, s1, cfg())
	l2 := net.Connect(b, s2, cfg())
	net.Connect(b, s3, cfg())
	b.Start()
	frame, _ := layers.Serialize(
		&layers.Ethernet{Dst: layers.BroadcastMAC, Src: layers.HostMAC(1), EtherType: layers.EtherTypeIPv4},
		layers.Payload([]byte{1}),
	)
	net.Engine.At(0, func() { l2.SetUp(false) })
	net.Engine.At(time.Millisecond, func() { b.FloodBytesExcept(b.Port(0), frame) })
	net.Run()
	if len(s1.got) != 0 {
		t.Fatal("flood echoed out the ingress port")
	}
	if len(s2.got) != 0 {
		t.Fatal("flood used a down port")
	}
	if len(s3.got) != 1 {
		t.Fatalf("s3 got %d frames, want 1", len(s3.got))
	}
	if b.Stats().Flooded != 1 {
		t.Fatalf("Flooded = %d, want 1", b.Stats().Flooded)
	}
}

func TestFloodExceptNilFloodsEverywhere(t *testing.T) {
	net := netsim.NewNetwork(1)
	b := newStubBridge(net, "b", 1, false)
	s1, s2 := &sink{name: "s1"}, &sink{name: "s2"}
	net.Connect(b, s1, cfg())
	net.Connect(b, s2, cfg())
	b.Start()
	frame, _ := layers.Serialize(
		&layers.Ethernet{Dst: layers.BroadcastMAC, Src: layers.HostMAC(1), EtherType: layers.EtherTypeIPv4},
		layers.Payload([]byte{1}),
	)
	net.Engine.At(0, func() { b.FloodBytesExcept(nil, frame) })
	net.Run()
	if len(s1.got) != 1 || len(s2.got) != 1 {
		t.Fatal("nil-except flood missed a port")
	}
}

func TestNonHelloFramesReachProtocol(t *testing.T) {
	net := netsim.NewNetwork(1)
	b := newStubBridge(net, "b", 1, true)
	s := &sink{name: "s"}
	net.Connect(b, s, cfg())
	b.Start()
	frame, _ := layers.Serialize(
		&layers.Ethernet{Dst: layers.HostMAC(9), Src: layers.HostMAC(1), EtherType: layers.EtherTypeIPv4},
		layers.Payload([]byte{1}),
	)
	net.Engine.At(0, func() { s.port.Send(frame) })
	net.Run()
	if b.proto.frames != 1 {
		t.Fatalf("protocol frames = %d, want 1", b.proto.frames)
	}
}

func TestPortsAccessors(t *testing.T) {
	net := netsim.NewNetwork(1)
	b := newStubBridge(net, "b", 1, false)
	s1, s2 := &sink{name: "s1"}, &sink{name: "s2"}
	net.Connect(b, s1, cfg())
	net.Connect(b, s2, cfg())
	if len(b.Ports()) != 2 {
		t.Fatalf("Ports() = %d", len(b.Ports()))
	}
	if b.Port(0).Index() != 0 || b.Port(1).Index() != 1 {
		t.Fatal("port order broken")
	}
}

// TestNeighborStateAcrossFlapAndRestart pins the port-indexed neighbour
// table on a multigraph: b1 reaches b2 over two parallel trunks, b3 over a
// third, and a host on an edge port. The hairpin predicate must see the
// parallel pair as one neighbour, must not leak one port's state into
// another's slot when a single link flaps, and must forget everything on
// Restart until the links bounce.
func TestNeighborStateAcrossFlapAndRestart(t *testing.T) {
	net := netsim.NewNetwork(1)
	b1 := newStubBridge(net, "b1", 1, true)
	b2 := newStubBridge(net, "b2", 2, true)
	b3 := newStubBridge(net, "b3", 3, true)
	para := net.Connect(b1, b2, cfg()) // b1 port 0
	net.Connect(b1, b2, cfg())         // b1 port 1, parallel to port 0
	net.Connect(b1, b3, cfg())         // b1 port 2
	net.Connect(b1, &sink{name: "h"}, cfg())
	net.Connect(b1, &sink{name: "g"}, cfg())
	for _, b := range []*stubBridge{b1, b2, b3} {
		b.Start()
	}
	net.RunFor(time.Millisecond)
	p0, p1, p2, edge, edge2 := b1.Port(0), b1.Port(1), b1.Port(2), b1.Port(3), b1.Port(4)

	discovered := func(when string) {
		t.Helper()
		for i, want := range []uint64{2, 2, 3} {
			if id, ok := b1.Neighbor(b1.Port(i)); !ok || id != want || b1.IsEdge(b1.Port(i)) {
				t.Fatalf("%s: port %d neighbour = (%d, %v), want bridge %d", when, i, id, ok, want)
			}
		}
		if _, ok := b1.Neighbor(edge); ok || !b1.IsEdge(edge) || b1.IsTrunk(edge) {
			t.Fatalf("%s: host port classified as trunk", when)
		}
		if !b1.SameNeighbor(p0, p1) || !b1.SameNeighbor(p1, p0) {
			t.Fatalf("%s: parallel trunks not recognised as one neighbour", when)
		}
		if b1.SameNeighbor(p0, p2) || b1.SameNeighbor(p1, edge) {
			t.Fatalf("%s: distinct neighbours conflated", when)
		}
		if b1.SameNeighbor(edge, edge2) || !b1.SameNeighbor(edge, edge) {
			t.Fatalf("%s: edge ports: only a port is its own neighbour", when)
		}
	}
	discovered("after HELLO")

	// One of the parallel links goes down: that port alone reverts to
	// edge; its twin and the other trunk keep their neighbours.
	net.Engine.At(net.Now(), func() { para.SetUp(false) })
	net.RunFor(time.Millisecond)
	if !b1.IsEdge(p0) || b1.SameNeighbor(p0, p1) {
		t.Fatal("downed parallel trunk still counted as the same neighbour")
	}
	if id, ok := b1.Neighbor(p1); !ok || id != 2 {
		t.Fatalf("flap of port 0 disturbed port 1: neighbour (%d, %v)", id, ok)
	}
	if id, ok := b1.Neighbor(p2); !ok || id != 3 {
		t.Fatalf("flap of port 0 disturbed port 2: neighbour (%d, %v)", id, ok)
	}
	net.Engine.At(net.Now(), func() { para.SetUp(true) })
	net.RunFor(time.Millisecond)
	discovered("after link up")

	// Restart forgets every port; BounceLinks rediscovers.
	net.Engine.At(net.Now(), func() { b1.Restart() })
	net.RunFor(time.Millisecond)
	for i, p := range b1.Ports() {
		if _, ok := b1.Neighbor(p); ok || !b1.IsEdge(p) {
			t.Fatalf("port %d kept its neighbour across Restart", i)
		}
	}
	if b1.SameNeighbor(p0, p1) {
		t.Fatal("parallel trunks still one neighbour after Restart")
	}
	net.Engine.At(net.Now(), func() { b1.BounceLinks() })
	net.RunFor(time.Millisecond)
	discovered("after restart bounce")
}
