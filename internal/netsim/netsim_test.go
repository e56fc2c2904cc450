package netsim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/layers"
)

// testNode records every frame it receives.
type testNode struct {
	name   string
	ports  []*Port
	frames []received
	status []bool
	onRecv func(p *Port, frame []byte)
}

type received struct {
	port  *Port
	frame []byte
	at    time.Duration
}

func newTestNode(name string) *testNode { return &testNode{name: name} }

func (n *testNode) Name() string       { return n.name }
func (n *testNode) AttachPort(p *Port) { n.ports = append(n.ports, p) }
func (n *testNode) HandleFrame(p *Port, f *Frame) {
	// Frames are borrowed; copy the bytes to keep them past the call.
	frame := append([]byte(nil), f.Bytes()...)
	n.frames = append(n.frames, received{p, frame, p.Link().net.Now()})
	if n.onRecv != nil {
		n.onRecv(p, frame)
	}
}
func (n *testNode) PortStatusChanged(_ *Port, up bool) { n.status = append(n.status, up) }

func gigabit(delay time.Duration) LinkConfig {
	return LinkConfig{Rate: 1_000_000_000, Delay: delay, Queue: 128 << 10}
}

func TestConnectAssignsPortIndices(t *testing.T) {
	net := NewNetwork(1)
	a, b, c := newTestNode("a"), newTestNode("b"), newTestNode("c")
	l1 := net.Connect(a, b, gigabit(0))
	l2 := net.Connect(a, c, gigabit(0))
	if l1.A().Index() != 0 || l2.A().Index() != 1 {
		t.Fatalf("a port indices: %d, %d", l1.A().Index(), l2.A().Index())
	}
	if l1.B().Index() != 0 || l2.B().Index() != 0 {
		t.Fatal("b/c should each start at port 0")
	}
	if l1.A().Peer() != l1.B() || l1.B().Peer() != l1.A() {
		t.Fatal("Peer() broken")
	}
	if len(net.Nodes()) != 3 {
		t.Fatalf("Nodes() = %d, want 3", len(net.Nodes()))
	}
	if net.NodeByName("b") != Node(b) {
		t.Fatal("NodeByName lookup failed")
	}
}

func TestDuplicateNodeNamePanics(t *testing.T) {
	net := NewNetwork(1)
	net.AddNode(newTestNode("x"))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate name did not panic")
		}
	}()
	net.AddNode(newTestNode("x"))
}

func TestBadLinkConfigPanics(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	for i, cfg := range []LinkConfig{
		{Rate: 0, Delay: 0, Queue: 1},
		{Rate: 1, Delay: -time.Second, Queue: 1},
		{Rate: 1, Delay: 0, Queue: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %d did not panic", i)
				}
			}()
			net.Connect(a, b, cfg)
		}()
	}
}

func TestFrameDeliveryTiming(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	delay := 10 * time.Microsecond
	l := net.Connect(a, b, gigabit(delay))
	frame := make([]byte, 1000)
	net.Engine.At(0, func() { l.A().Send(frame) })
	net.Run()
	if len(b.frames) != 1 {
		t.Fatalf("b received %d frames, want 1", len(b.frames))
	}
	// 1000-byte frame → 1024 wire bytes → 8192 ns at 1 Gb/s, plus 10 µs.
	wire := layers.WireBytes(1000)
	want := time.Duration(wire)*8*time.Nanosecond + delay
	if got := b.frames[0].at; got != want {
		t.Fatalf("delivery at %v, want %v", got, want)
	}
}

func TestFrameIsCopiedOnSend(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(0))
	frame := []byte{1, 2, 3}
	net.Engine.At(0, func() {
		l.A().Send(frame)
		frame[0] = 99 // mutation after send must not reach the receiver
	})
	net.Run()
	if b.frames[0].frame[0] != 1 {
		t.Fatal("frame was not copied on send")
	}
}

func TestSerializationQueuesBackToBackFrames(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(0))
	frame := make([]byte, 1000)
	net.Engine.At(0, func() {
		l.A().Send(frame)
		l.A().Send(frame)
	})
	net.Run()
	if len(b.frames) != 2 {
		t.Fatalf("received %d frames, want 2", len(b.frames))
	}
	per := time.Duration(layers.WireBytes(1000)) * 8 * time.Nanosecond
	if b.frames[0].at != per || b.frames[1].at != 2*per {
		t.Fatalf("arrivals %v, %v; want %v, %v", b.frames[0].at, b.frames[1].at, per, 2*per)
	}
}

func TestPerLinkFIFOOrder(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(3*time.Microsecond))
	net.Engine.At(0, func() {
		for i := 0; i < 20; i++ {
			l.A().Send([]byte{byte(i)})
		}
	})
	net.Run()
	if len(b.frames) != 20 {
		t.Fatalf("received %d frames", len(b.frames))
	}
	for i, r := range b.frames {
		if r.frame[0] != byte(i) {
			t.Fatalf("FIFO violated at %d: got %d", i, r.frame[0])
		}
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	cfg := LinkConfig{Rate: 1_000_000_000, Delay: 0, Queue: 3000}
	l := net.Connect(a, b, cfg)
	var drops int
	net.Tap(func(ev TapEvent) {
		if ev.Kind == TapDropQueue {
			drops++
		}
	})
	frame := make([]byte, 1000) // 1024 wire bytes each → 2 fit in 3000
	net.Engine.At(0, func() {
		for i := 0; i < 5; i++ {
			l.A().Send(frame)
		}
	})
	net.Run()
	if len(b.frames) != 2 {
		t.Fatalf("delivered %d, want 2", len(b.frames))
	}
	if drops != 3 {
		t.Fatalf("drops = %d, want 3", drops)
	}
	if l.A().Stats().DropsQueue != 3 {
		t.Fatalf("stats drops = %d", l.A().Stats().DropsQueue)
	}
}

func TestQueueDrainsOverTime(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	cfg := LinkConfig{Rate: 1_000_000_000, Delay: 0, Queue: 3000}
	l := net.Connect(a, b, cfg)
	frame := make([]byte, 1000)
	// Send two, wait for the serializer to drain, send two more: all pass.
	net.Engine.At(0, func() { l.A().Send(frame); l.A().Send(frame) })
	net.Engine.At(time.Millisecond, func() { l.A().Send(frame); l.A().Send(frame) })
	net.Run()
	if len(b.frames) != 4 {
		t.Fatalf("delivered %d, want 4", len(b.frames))
	}
}

func TestLinkDownDropsAndNotifies(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(time.Microsecond))
	net.Engine.At(0, func() { l.SetUp(false) })
	net.Engine.At(time.Millisecond, func() { l.A().Send([]byte{1}) })
	net.Run()
	if len(b.frames) != 0 {
		t.Fatal("frame delivered over down link")
	}
	if l.A().Stats().DropsDown != 1 {
		t.Fatalf("DropsDown = %d", l.A().Stats().DropsDown)
	}
	if len(a.status) != 1 || a.status[0] != false || len(b.status) != 1 {
		t.Fatalf("status notifications: a=%v b=%v", a.status, b.status)
	}
	if l.Up() || l.A().Up() {
		t.Fatal("Up() still true")
	}
}

func TestLinkDownKillsInFlightFrames(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(100*time.Microsecond))
	net.Engine.At(0, func() { l.A().Send([]byte{1}) })
	net.Engine.At(50*time.Microsecond, func() { l.SetUp(false) }) // mid-flight
	net.Run()
	if len(b.frames) != 0 {
		t.Fatal("in-flight frame survived a link cut")
	}
}

func TestLinkFlapKillsInFlightFrames(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(100*time.Microsecond))
	net.Engine.At(0, func() { l.A().Send([]byte{1}) })
	// Down and straight back up while the frame propagates: it still dies.
	net.Engine.At(10*time.Microsecond, func() { l.SetUp(false) })
	net.Engine.At(20*time.Microsecond, func() { l.SetUp(true) })
	net.Engine.At(time.Millisecond, func() { l.A().Send([]byte{2}) })
	net.Run()
	if len(b.frames) != 1 || b.frames[0].frame[0] != 2 {
		t.Fatalf("frames after flap: %v", b.frames)
	}
}

func TestSetUpIdempotent(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(0))
	net.Engine.At(0, func() {
		l.SetUp(true) // already up: no notification
		l.SetUp(false)
		l.SetUp(false) // already down: no notification
	})
	net.Run()
	if len(a.status) != 1 {
		t.Fatalf("a.status = %v, want one down notification", a.status)
	}
}

func TestScheduleLinkDownUp(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(0))
	net.Engine.At(time.Millisecond, func() { l.SetUp(false) })
	net.Engine.At(2*time.Millisecond, func() { l.SetUp(true) })
	net.Engine.At(3*time.Millisecond, func() { l.A().Send([]byte{7}) })
	net.Run()
	if len(b.frames) != 1 {
		t.Fatal("frame lost after link restore")
	}
	if len(a.status) != 2 || a.status[0] || !a.status[1] {
		t.Fatalf("status sequence %v, want [false true]", a.status)
	}
}

func TestTapSequence(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(time.Microsecond))
	var kinds []TapKind
	net.Tap(func(ev TapEvent) { kinds = append(kinds, ev.Kind) })
	net.Engine.At(0, func() { l.A().Send([]byte{1}) })
	net.Run()
	if len(kinds) != 2 || kinds[0] != TapSend || kinds[1] != TapDeliver {
		t.Fatalf("tap kinds = %v", kinds)
	}
}

func TestTapKindStrings(t *testing.T) {
	for k, want := range map[TapKind]string{
		TapSend: "send", TapDeliver: "deliver",
		TapDropQueue: "drop-queue", TapDropDown: "drop-down",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
}

func TestPortAndLinkStrings(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("alpha"), newTestNode("beta")
	l := net.Connect(a, b, gigabit(0))
	if l.A().String() != "alpha[0]" {
		t.Fatalf("port string %q", l.A().String())
	}
	if l.String() != "alpha[0]<->beta[0]" {
		t.Fatalf("link string %q", l.String())
	}
}

func TestStatsCounting(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(0))
	net.Engine.At(0, func() {
		l.A().Send(make([]byte, 100))
		l.B().Send(make([]byte, 200))
	})
	net.Run()
	as, bs := l.A().Stats(), l.B().Stats()
	if as.TxFrames != 1 || as.TxBytes != 100 || as.RxFrames != 1 || as.RxBytes != 200 {
		t.Fatalf("a stats %+v", as)
	}
	if bs.TxFrames != 1 || bs.TxBytes != 200 || bs.RxFrames != 1 || bs.RxBytes != 100 {
		t.Fatalf("b stats %+v", bs)
	}
}

func TestBusyTimeAccumulates(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(0))
	net.Engine.At(0, func() { l.A().Send(make([]byte, 1000)) })
	net.Run()
	want := time.Duration(layers.WireBytes(1000)) * 8 * time.Nanosecond
	if got := l.BusyTime(l.A()); got != want {
		t.Fatalf("BusyTime = %v, want %v", got, want)
	}
	if l.BusyTime(l.B()) != 0 {
		t.Fatal("reverse direction should be idle")
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	net := NewNetwork(1)
	a, b := newTestNode("a"), newTestNode("b")
	l := net.Connect(a, b, gigabit(0))
	frame := make([]byte, 1000)
	net.Engine.At(0, func() {
		l.A().Send(frame)
		l.B().Send(frame)
	})
	net.Run()
	per := time.Duration(layers.WireBytes(1000)) * 8 * time.Nanosecond
	// Both directions finish at the same time: no shared serializer.
	if a.frames[0].at != per || b.frames[0].at != per {
		t.Fatalf("duplex arrivals %v / %v, want both %v", a.frames[0].at, b.frames[0].at, per)
	}
}

func TestSelfLoopGetsDistinctIndices(t *testing.T) {
	net := NewNetwork(1)
	a := newTestNode("a")
	l := net.Connect(a, a, gigabit(0))
	if l.A().Index() == l.B().Index() {
		t.Fatal("self-loop ports share an index")
	}
}

// relayNode forwards every received frame out all other ports — enough to
// build a two-node forwarding loop for the event-limit backstop test.
type relayNode struct {
	testNode
}

func (r *relayNode) HandleFrame(p *Port, f *Frame) {
	for _, q := range r.ports {
		if q != p {
			q.SendFrame(f)
		}
	}
}

func TestForwardingLoopTripsEventLimit(t *testing.T) {
	net := NewNetwork(1)
	a, b := &relayNode{testNode{name: "a"}}, &relayNode{testNode{name: "b"}}
	l1 := net.Connect(a, b, gigabit(time.Microsecond))
	net.Connect(a, b, gigabit(time.Microsecond)) // parallel link → loop
	net.Engine.SetEventLimit(10_000)
	net.Engine.At(0, func() { l1.A().Send([]byte{1}) })
	defer func() {
		if recover() == nil {
			t.Fatal("forwarding loop did not trip the event limit")
		}
	}()
	net.Run()
}

// Property: delivery time is monotone in send order for a single direction
// (per-link FIFO), for arbitrary frame sizes.
func TestQuickPerLinkFIFO(t *testing.T) {
	f := func(sizes []uint16) bool {
		net := NewNetwork(1)
		a, b := newTestNode("a"), newTestNode("b")
		l := net.Connect(a, b, LinkConfig{Rate: 1_000_000_000, Delay: time.Microsecond, Queue: 64 << 20})
		net.Engine.At(0, func() {
			for i, s := range sizes {
				frame := make([]byte, int(s%1400)+1)
				frame[0] = byte(i)
				l.A().Send(frame)
			}
		})
		net.Run()
		if len(b.frames) != len(sizes) {
			return false
		}
		for i := 1; i < len(b.frames); i++ {
			if b.frames[i].at <= b.frames[i-1].at {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: conservation — every sent frame is delivered exactly once or
// dropped exactly once, never duplicated, on an always-up link.
func TestQuickFrameConservation(t *testing.T) {
	f := func(sizes []uint16, queueKB uint8) bool {
		net := NewNetwork(1)
		a, b := newTestNode("a"), newTestNode("b")
		q := (int(queueKB%64) + 1) << 10
		l := net.Connect(a, b, LinkConfig{Rate: 1_000_000_000, Delay: time.Microsecond, Queue: q})
		var sent, delivered, dropped int
		net.Tap(func(ev TapEvent) {
			switch ev.Kind {
			case TapSend:
				sent++
			case TapDeliver:
				delivered++
			case TapDropQueue, TapDropDown:
				dropped++
			}
		})
		net.Engine.At(0, func() {
			for _, s := range sizes {
				l.A().Send(make([]byte, int(s%1400)+1))
			}
		})
		net.Run()
		return sent+dropped == len(sizes) && delivered == sent && len(b.frames) == delivered
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(6))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLinkThroughput(b *testing.B) {
	net := NewNetwork(1)
	src, dst := newTestNode("src"), newTestNode("dst")
	l := net.Connect(src, dst, gigabit(time.Microsecond))
	frame := make([]byte, 1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l.A().Send(frame)
		net.Run()
	}
	_ = fmt.Sprint(len(dst.frames))
}
