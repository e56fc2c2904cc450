package learning

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// endpoint is a minimal host for dataplane tests: it records frames
// addressed to it (or broadcast) and can transmit.
type endpoint struct {
	name string
	mac  layers.MAC
	port *netsim.Port
	got  [][]byte
}

func newEndpoint(name string, n int) *endpoint {
	return &endpoint{name: name, mac: layers.HostMAC(n)}
}

func (e *endpoint) Name() string                             { return e.name }
func (e *endpoint) AttachPort(p *netsim.Port)                { e.port = p }
func (e *endpoint) PortStatusChanged(_ *netsim.Port, _ bool) {}
func (e *endpoint) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	frame := append([]byte(nil), f.Bytes()...) // borrowed: copy to keep
	dst := layers.FrameDst(frame)
	if dst == e.mac || dst.IsMulticast() {
		e.got = append(e.got, frame)
	}
}

// send emits a frame from this endpoint to dst with a tagged payload.
func (e *endpoint) send(dst layers.MAC, tag byte) {
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: dst, Src: e.mac, EtherType: layers.EtherTypeIPv4},
		layers.Payload([]byte{tag}),
	)
	if err != nil {
		panic(err)
	}
	e.port.Send(frame)
}

func cfg() netsim.LinkConfig { return netsim.DefaultLinkConfig() }

// lineTopo builds h1 - sw1 - sw2 - h2 and returns the pieces.
func lineTopo(t *testing.T) (*netsim.Network, *endpoint, *endpoint, *Switch, *Switch) {
	t.Helper()
	net := netsim.NewNetwork(1)
	h1, h2 := newEndpoint("h1", 1), newEndpoint("h2", 2)
	sw1, sw2 := New(net, "sw1", 1), New(net, "sw2", 2)
	net.Connect(h1, sw1, cfg())
	net.Connect(sw1, sw2, cfg())
	net.Connect(sw2, h2, cfg())
	sw1.Start()
	sw2.Start()
	return net, h1, h2, sw1, sw2
}

func TestUnknownUnicastFloodsThenLearns(t *testing.T) {
	net, h1, h2, sw1, _ := lineTopo(t)
	net.Engine.At(0, func() { h1.send(layers.HostMAC(2), 1) })
	net.Run()
	if len(h2.got) != 1 {
		t.Fatalf("h2 got %d frames, want 1", len(h2.got))
	}
	if sw1.stats.FloodedUnknown != 1 {
		t.Fatalf("sw1 flooded = %d, want 1", sw1.stats.FloodedUnknown)
	}
	// Reply: now both switches know h2, so no new floods.
	net.Engine.At(net.Now(), func() { h2.send(layers.HostMAC(1), 2) })
	net.Run()
	if len(h1.got) != 1 {
		t.Fatalf("h1 got %d frames, want 1", len(h1.got))
	}
	if sw1.stats.FloodedUnknown != 1 {
		t.Fatal("reply flooded despite learned table")
	}
	// Third frame h1→h2 is a pure unicast forward.
	before := sw1.stats.Forwarded
	net.Engine.At(net.Now(), func() { h1.send(layers.HostMAC(2), 3) })
	net.Run()
	if sw1.stats.Forwarded != before+1 {
		t.Fatal("learned unicast not forwarded directly")
	}
}

func TestBroadcastFloods(t *testing.T) {
	net, h1, h2, _, _ := lineTopo(t)
	net.Engine.At(0, func() { h1.send(layers.BroadcastMAC, 9) })
	net.Run()
	if len(h2.got) != 1 {
		t.Fatalf("broadcast not delivered: %d", len(h2.got))
	}
}

func TestFilterSameSegment(t *testing.T) {
	// h1 and h2 on the same switch port side: h1 - sw - h2, then traffic
	// h1→h1's own MAC arriving at sw from h1's port must be filtered once
	// learned. Simulate by having h1 send to a MAC learned on its own port.
	net := netsim.NewNetwork(1)
	h1 := newEndpoint("h1", 1)
	sw := New(net, "sw", 1)
	net.Connect(h1, sw, cfg())
	h2 := newEndpoint("h2", 2)
	net.Connect(sw, h2, cfg())
	sw.Start()
	// Teach the switch that MAC 3 lives behind port 0 (h1's port).
	ghost := newEndpoint("ghost", 3)
	_ = ghost
	net.Engine.At(0, func() {
		frame, _ := layers.Serialize(
			&layers.Ethernet{Dst: layers.HostMAC(99), Src: layers.HostMAC(3), EtherType: layers.EtherTypeIPv4},
			layers.Payload([]byte{0}),
		)
		h1.port.Send(frame) // ghost speaks from h1's segment
	})
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { h1.send(layers.HostMAC(3), 1) })
	net.Run()
	if sw.stats.Filtered != 1 {
		t.Fatalf("Filtered = %d, want 1", sw.stats.Filtered)
	}
	// The ghost's flood carried an alien destination MAC, so h2's NIC
	// filter dropped it; nothing else may have reached h2.
	if len(h2.got) != 0 {
		t.Fatalf("h2 got %d frames, want 0", len(h2.got))
	}
}

func TestLinkDownFlushesPort(t *testing.T) {
	net, h1, _, sw1, _ := lineTopo(t)
	net.Engine.At(0, func() { h1.send(layers.HostMAC(2), 1) })
	net.RunFor(time.Millisecond)
	if _, ok := sw1.FIB().Lookup(layers.HostMAC(1), net.Now()); !ok {
		t.Fatal("h1 not learned")
	}
	net.Engine.At(net.Now(), func() { sw1.Port(0).Link().SetUp(false) })
	net.Run()
	if _, ok := sw1.FIB().Lookup(layers.HostMAC(1), net.Now()); ok {
		t.Fatal("binding survived link down")
	}
}

func TestLoopMeltdown(t *testing.T) {
	// Two learning switches joined by two parallel links: a single
	// broadcast circulates forever. The event limit must trip — this is
	// the failure mode STP and ARP-Path exist to prevent.
	net := netsim.NewNetwork(1)
	h := newEndpoint("h", 1)
	sw1, sw2 := New(net, "sw1", 1), New(net, "sw2", 2)
	net.Connect(h, sw1, cfg())
	net.Connect(sw1, sw2, cfg())
	net.Connect(sw1, sw2, cfg())
	sw1.Start()
	sw2.Start()
	net.Engine.SetEventLimit(20_000)
	net.Engine.At(0, func() { h.send(layers.BroadcastMAC, 1) })
	defer func() {
		if recover() == nil {
			t.Fatal("loop did not melt down — learning switch gained loop protection?")
		}
	}()
	net.Run()
}

func TestTableAging(t *testing.T) {
	tb := NewTable(time.Second)
	net := netsim.NewNetwork(1)
	a, b := newEndpoint("a", 1), newEndpoint("b", 2)
	l := net.Connect(a, b, cfg())
	tb.Learn(layers.HostMAC(1), l.A(), 0)
	if _, ok := tb.Lookup(layers.HostMAC(1), 999*time.Millisecond); !ok {
		t.Fatal("entry expired early")
	}
	if _, ok := tb.Lookup(layers.HostMAC(1), time.Second); ok {
		t.Fatal("entry survived expiry")
	}
	if tb.Len() != 0 {
		t.Fatal("lazy eviction did not remove the entry")
	}
}

func TestTableRefreshOnRelearn(t *testing.T) {
	tb := NewTable(time.Second)
	net := netsim.NewNetwork(1)
	a, b := newEndpoint("a", 1), newEndpoint("b", 2)
	l := net.Connect(a, b, cfg())
	tb.Learn(layers.HostMAC(1), l.A(), 0)
	tb.Learn(layers.HostMAC(1), l.A(), 900*time.Millisecond)
	if _, ok := tb.Lookup(layers.HostMAC(1), 1500*time.Millisecond); !ok {
		t.Fatal("refresh did not extend expiry")
	}
}

func TestTableIgnoresMulticastAndZeroSource(t *testing.T) {
	tb := NewTable(time.Second)
	net := netsim.NewNetwork(1)
	a, b := newEndpoint("a", 1), newEndpoint("b", 2)
	l := net.Connect(a, b, cfg())
	tb.Learn(layers.BroadcastMAC, l.A(), 0)
	tb.Learn(layers.ZeroMAC, l.A(), 0)
	if tb.Len() != 0 {
		t.Fatal("invalid source learned")
	}
}

func TestTableFlushes(t *testing.T) {
	tb := NewTable(time.Second)
	net := netsim.NewNetwork(1)
	a, b := newEndpoint("a", 1), newEndpoint("b", 2)
	l := net.Connect(a, b, cfg())
	tb.Learn(layers.HostMAC(1), l.A(), 0)
	tb.Learn(layers.HostMAC(2), l.B(), 0)
	tb.FlushPort(l.A())
	if _, ok := tb.Lookup(layers.HostMAC(1), 0); ok {
		t.Fatal("FlushPort missed")
	}
	if _, ok := tb.Lookup(layers.HostMAC(2), 0); !ok {
		t.Fatal("FlushPort overreached")
	}
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatal("Reset missed")
	}
}

func TestTableFlushExpired(t *testing.T) {
	tb := NewTable(time.Second)
	net := netsim.NewNetwork(1)
	a, b := newEndpoint("a", 1), newEndpoint("b", 2)
	l := net.Connect(a, b, cfg())
	tb.Learn(layers.HostMAC(1), l.A(), 0)
	tb.Learn(layers.HostMAC(2), l.A(), 500*time.Millisecond)
	tb.FlushExpired(time.Second)
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after sweep, want 1", tb.Len())
	}
}

// TestTableGenerationFlush exercises the O(1) generation-based FlushPort:
// corpses stay in the map but are invisible to Lookup, Len and Snapshot, and
// re-learning on a flushed port starts a fresh generation.
func TestTableGenerationFlush(t *testing.T) {
	tb := NewTable(time.Second)
	net := netsim.NewNetwork(1)
	a, b := newEndpoint("a", 1), newEndpoint("b", 2)
	l := net.Connect(a, b, cfg())
	for i := 1; i <= 5; i++ {
		tb.Learn(layers.HostMAC(i), l.A(), 0)
	}
	tb.Learn(layers.HostMAC(6), l.B(), 0)
	tb.FlushPort(l.A())
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after flush, want 1", tb.Len())
	}
	if got := tb.Snapshot(0); len(got) != 1 || got[layers.HostMAC(6).Uint64()].Port != l.B() {
		t.Fatalf("Snapshot = %v, want only host 6", got)
	}
	// Re-learn two of the flushed MACs; one on each port.
	tb.Learn(layers.HostMAC(1), l.A(), 0)
	tb.Learn(layers.HostMAC(2), l.B(), 0)
	if tb.Len() != 3 {
		t.Fatalf("Len = %d after re-learn, want 3", tb.Len())
	}
	if p, ok := tb.Lookup(layers.HostMAC(1), 0); !ok || p != l.A() {
		t.Fatal("re-learned entry on flushed port not visible")
	}
	// A second flush kills only the re-learned entry on A.
	tb.FlushPort(l.A())
	if _, ok := tb.Lookup(layers.HostMAC(1), 0); ok {
		t.Fatal("second flush missed the re-learned entry")
	}
	if _, ok := tb.Lookup(layers.HostMAC(2), 0); !ok {
		t.Fatal("second flush overreached onto port B")
	}
	// FlushExpired clears every corpse from the map itself.
	tb.FlushExpired(0)
	if tb.Entries() != 2 {
		t.Fatalf("map holds %d entries after sweep, want 2", tb.Entries())
	}
}

func TestSetAgingValidation(t *testing.T) {
	tb := NewTable(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive aging accepted")
		}
	}()
	tb.SetAging(0)
}

// Property: the table never returns an expired entry and never holds more
// than one port per MAC.
func TestQuickTableConsistency(t *testing.T) {
	net := netsim.NewNetwork(1)
	a, b := newEndpoint("a", 1), newEndpoint("b", 2)
	l := net.Connect(a, b, cfg())
	ports := []*netsim.Port{l.A(), l.B()}
	f := func(ops []struct {
		Mac     uint8
		PortSel bool
		AtMs    uint16
	}) bool {
		tb := NewTable(time.Second)
		now := time.Duration(0)
		for _, op := range ops {
			at := time.Duration(op.AtMs) * time.Millisecond
			if at > now {
				now = at
			}
			mac := layers.HostMAC(int(op.Mac % 8))
			port := ports[0]
			if op.PortSel {
				port = ports[1]
			}
			tb.Learn(mac, port, now)
			got, ok := tb.Lookup(mac, now)
			if !ok || got != port {
				return false // a fresh learn must be visible on its port
			}
			if _, ok := tb.Lookup(mac, now+2*time.Second); ok {
				return false // must be gone after aging
			}
			tb.Learn(mac, port, now) // lookup at future evicted it; restore
		}
		return true
	}
	qc := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(f, qc); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTableLearnLookup(b *testing.B) {
	net := netsim.NewNetwork(1)
	x, y := newEndpoint("a", 1), newEndpoint("b", 2)
	l := net.Connect(x, y, cfg())
	tb := NewTable(time.Hour)
	macs := make([]layers.MAC, 256)
	for i := range macs {
		macs[i] = layers.HostMAC(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := macs[i%len(macs)]
		tb.Learn(m, l.A(), time.Duration(i))
		tb.Lookup(m, time.Duration(i))
	}
}
