package stp

import (
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// TestTCNStopsAfterTCA: a bridge that detected a topology change must
// retransmit TCNs on its root port only until the designated bridge
// acknowledges with the TCA flag.
func TestTCNStopsAfterTCA(t *testing.T) {
	net := netsim.NewNetwork(1)
	timers := DefaultTimers()
	root := New(net, "root", 1, 0x1000, timers)
	mid := New(net, "mid", 2, 0x8000, timers)
	leaf := New(net, "leaf", 3, 0x8000, timers)
	cfg := netsim.DefaultLinkConfig()
	net.Connect(root, mid, cfg)
	net.Connect(mid, leaf, cfg)
	// A host port on the leaf to create a topology change when it opens.
	h := newEndpoint("h", 1)
	hostLink := net.Connect(leaf, h, cfg)
	hostLink.SetUp(false)
	for _, b := range []*Bridge{root, mid, leaf} {
		b.Start()
	}
	net.RunFor(settle)

	// Opening the host port drives it to forwarding ⇒ topology change ⇒
	// TCNs from leaf toward the root until acknowledged.
	net.Engine.At(net.Now(), func() { hostLink.SetUp(true) })
	net.RunFor(settle)
	tcnSent := leaf.Stats().TCNTx
	if tcnSent == 0 {
		t.Fatal("leaf never raised a TCN")
	}
	if mid.Stats().TCNRx == 0 {
		t.Fatal("mid never saw the TCN")
	}
	// Once acknowledged, the retransmission stops: over the next several
	// hello intervals the count must not keep climbing unboundedly.
	net.RunFor(10 * timers.Hello.D())
	if leaf.Stats().TCNTx > tcnSent+2 {
		t.Fatalf("TCN kept retransmitting after TCA: %d → %d", tcnSent, leaf.Stats().TCNTx)
	}
}

// TestFastAgingDuringTopologyChange: the TC flag from the root must drop
// the FIB aging to forward-delay, and normal aging must return after the
// TC period lapses.
func TestFastAgingDuringTopologyChange(t *testing.T) {
	net := netsim.NewNetwork(1)
	timers := DefaultTimers()
	bs := buildRing(net, 3, timers)
	h1, h2 := newEndpoint("h1", 1), newEndpoint("h2", 2)
	net.Connect(h1, bs[0], cfg())
	net.Connect(h2, bs[1], cfg())
	net.RunFor(settle)

	// Aging is restored lazily, by the first frame forwarded after the TC
	// period: the root flags TC for max-age + forward-delay after the last
	// notification (which a port reaching forwarding may raise up to two
	// forward-delays after the event), and every flagged BPDU pushes a
	// bridge's own deadline out by as much again. Three periods cover it.
	normal := timers.Aging.D()
	tcPeriod := 3*(timers.MaxAge+timers.ForwardDelay).D() + 5*time.Second
	restored := func(when string, tag byte) {
		t.Helper()
		net.RunFor(tcPeriod)
		net.Engine.At(net.Now(), func() { h1.send(layers.BroadcastMAC, tag) })
		net.RunFor(5 * time.Second)
		for _, b := range bs {
			if !fibAgesAfter(b, net.Now(), normal) {
				t.Fatalf("%s: %s aging is not %v once the TC period is over", when, b.Name(), normal)
			}
		}
	}
	// Initial convergence is itself a topology change; let it lapse so the
	// cut below is what shortens the aging.
	restored("after convergence", 1)

	// Cut a forwarding ring link → TC propagates → fast aging at the
	// bridges that hear the root's TC flag.
	var cut *netsim.Link
	for _, l := range net.Links() {
		pa, pb := l.A(), l.B()
		ba, okA := pa.Node().(*Bridge)
		bb, okB := pb.Node().(*Bridge)
		if okA && okB && ba.State(pa) == StateForwarding && bb.State(pb) == StateForwarding {
			cut = l
			break
		}
	}
	net.Engine.At(net.Now(), func() { cut.SetUp(false) })
	net.RunFor(10 * time.Second)
	fastSeen := false
	for _, b := range bs {
		if fibAgesAfter(b, net.Now(), timers.ForwardDelay.D()) {
			fastSeen = true
		}
	}
	if !fastSeen {
		t.Fatal("no bridge entered fast aging after the topology change")
	}
	restored("after the cut", 2)
}

// fibAgesAfter reports whether b's FIB currently ages entries after exactly
// aging, read off the table the way a frame meets it: a probe address
// learned now is still found one tick before now+aging and gone at it.
func fibAgesAfter(b *Bridge, now, aging time.Duration) bool {
	probe := layers.HostMAC(0xfffe)
	b.fib.Learn(probe, b.Ports()[0], now)
	_, before := b.fib.Lookup(probe, now+aging-1)
	_, at := b.fib.Lookup(probe, now+aging)
	b.fib.Delete(probe.Uint64())
	return before && !at
}

// TestBPDUIgnoredOnDownPort: BPDUs that arrive racing a link-down event
// must not resurrect state on a disabled port.
func TestBPDUIgnoredOnDownPort(t *testing.T) {
	net := netsim.NewNetwork(1)
	b1 := New(net, "b1", 1, 0x8000, DefaultTimers())
	b2 := New(net, "b2", 2, 0x8000, DefaultTimers())
	l := net.Connect(b1, b2, cfg())
	b1.Start()
	b2.Start()
	net.RunFor(settle)
	net.Engine.At(net.Now(), func() { l.SetUp(false) })
	net.RunFor(time.Second)
	if b2.State(b2.Port(0)) != StateDisabled {
		t.Fatalf("port state %v after link down", b2.State(b2.Port(0)))
	}
	// Both bridges must now consider themselves root of their own island.
	if !b1.IsRoot() || !b2.IsRoot() {
		t.Fatal("isolated bridges did not reclaim root")
	}
}

// TestStopCancelsTimers: after Stop, a drained engine must terminate.
func TestStopCancelsTimers(t *testing.T) {
	net := netsim.NewNetwork(1)
	bs := buildRing(net, 3, DefaultTimers())
	net.RunFor(10 * time.Second)
	for _, b := range bs {
		b.Stop()
	}
	// With every periodic timer cancelled the queue drains; Run returning
	// is the assertion (a live hello timer would loop forever and trip
	// the event limit instead).
	net.Engine.SetEventLimit(100_000)
	net.Run()
}
