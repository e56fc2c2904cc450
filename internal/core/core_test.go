package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// host is a raw test endpoint speaking ARP and data frames.
type host struct {
	name string
	mac  layers.MAC
	ip   layers.Addr4
	port *netsim.Port
	got  [][]byte
	// autoReplyARP answers ARP requests for this host's IP.
	autoReplyARP bool
}

func newHost(name string, n int) *host {
	return &host{name: name, mac: layers.HostMAC(n), ip: layers.HostIP(n), autoReplyARP: true}
}

func (h *host) Name() string                             { return h.name }
func (h *host) AttachPort(p *netsim.Port)                { h.port = p }
func (h *host) PortStatusChanged(_ *netsim.Port, _ bool) {}

func (h *host) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	frame := append([]byte(nil), f.Bytes()...) // borrowed: copy to keep
	dst := layers.FrameDst(frame)
	if dst != h.mac && !dst.IsBroadcast() {
		return
	}
	if layers.FrameEtherType(frame) == layers.EtherTypePathCtl {
		return // hosts ignore bridge control traffic (transparency)
	}
	h.got = append(h.got, frame)
	if !h.autoReplyARP || layers.FrameEtherType(frame) != layers.EtherTypeARP {
		return
	}
	var eth layers.Ethernet
	var arp layers.ARP
	if eth.DecodeFromBytes(frame) != nil || arp.DecodeFromBytes(eth.Payload()) != nil {
		return
	}
	if arp.Operation == layers.ARPRequest && arp.TargetIP == h.ip {
		reply, err := layers.Serialize(
			&layers.Ethernet{Dst: arp.SenderHW, Src: h.mac, EtherType: layers.EtherTypeARP},
			&layers.ARP{Operation: layers.ARPReply, SenderHW: h.mac, SenderIP: h.ip,
				TargetHW: arp.SenderHW, TargetIP: arp.SenderIP},
		)
		if err != nil {
			panic(err)
		}
		h.port.Send(reply)
	}
}

// sendARPRequest broadcasts an ARP request for target's IP.
func (h *host) sendARPRequest(targetIP layers.Addr4) {
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: layers.BroadcastMAC, Src: h.mac, EtherType: layers.EtherTypeARP},
		&layers.ARP{Operation: layers.ARPRequest, SenderHW: h.mac, SenderIP: h.ip, TargetIP: targetIP},
	)
	if err != nil {
		panic(err)
	}
	h.port.Send(frame)
}

// sendData sends a unicast data frame to dst.
func (h *host) sendData(dst layers.MAC, tag byte) {
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: dst, Src: h.mac, EtherType: layers.EtherTypeIPv4},
		layers.Payload([]byte{tag}),
	)
	if err != nil {
		panic(err)
	}
	h.port.Send(frame)
}

// dataFrames returns the non-ARP frames received.
func (h *host) dataFrames() [][]byte {
	var out [][]byte
	for _, f := range h.got {
		if layers.FrameEtherType(f) == layers.EtherTypeIPv4 {
			out = append(out, f)
		}
	}
	return out
}

func link(delay time.Duration) netsim.LinkConfig {
	return netsim.DefaultLinkConfig().WithDelay(delay)
}

// paper5 builds the Figure 1 topology of the paper:
//
//	S - B2,  B2-B1, B2-B3, B1-B3, B1-B4, B3-B5, B4-B5, B5-D
//
// with uniform link delays, and starts all bridges.
func paper5(seed int64) (*netsim.Network, *host, *host, []*Bridge) {
	net := netsim.NewNetwork(seed)
	s, d := newHost("S", 1), newHost("D", 2)
	bs := make([]*Bridge, 6) // 1-indexed as in the figure
	for i := 1; i <= 5; i++ {
		bs[i] = New(net, "B"+string(rune('0'+i)), i, DefaultConfig())
	}
	dl := 5 * time.Microsecond
	net.Connect(s, bs[2], link(dl))
	net.Connect(bs[2], bs[1], link(dl))
	net.Connect(bs[2], bs[3], link(dl))
	net.Connect(bs[1], bs[3], link(dl))
	net.Connect(bs[1], bs[4], link(dl))
	net.Connect(bs[3], bs[5], link(dl))
	net.Connect(bs[4], bs[5], link(dl))
	net.Connect(bs[5], d, link(dl))
	for _, b := range bs[1:] {
		b.Start()
	}
	return net, s, d, bs[1:]
}

func TestDiscoveryLocksReversePath(t *testing.T) {
	net, s, d, bs := paper5(1)
	net.RunFor(time.Millisecond) // HELLOs settle
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(50 * time.Millisecond)

	// Every bridge must have locked/learned S (the request floods
	// everywhere), forming a reverse path: following S-entries from any
	// bridge must reach S without loops.
	for _, b := range bs {
		e, ok := b.EntryFor(s.mac)
		if !ok {
			t.Fatalf("%s has no entry for S", b.Name())
		}
		_ = e
	}
	// The ARP Reply must have come back to S.
	if len(s.got) != 1 {
		t.Fatalf("S received %d frames, want 1 (the ARP reply)", len(s.got))
	}
	// Bridges on the S–D path now know D (learned); only they needed it.
	if _, ok := bsByName(bs, "B2").EntryFor(d.mac); !ok {
		t.Fatal("S's edge bridge did not learn D from the reply")
	}
	if _, ok := bsByName(bs, "B5").EntryFor(d.mac); !ok {
		t.Fatal("D's edge bridge did not learn D")
	}
}

func bsByName(bs []*Bridge, name string) *Bridge {
	for _, b := range bs {
		if b.Name() == name {
			return b
		}
	}
	panic("no bridge " + name)
}

func TestExactlyOneCopyDeliveredThroughMesh(t *testing.T) {
	net, s, d, _ := paper5(1)
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(50 * time.Millisecond)
	// Despite the looped mesh, D gets exactly one copy of the request.
	reqs := 0
	for _, f := range d.got {
		if layers.FrameEtherType(f) == layers.EtherTypeARP {
			reqs++
		}
	}
	if reqs != 1 {
		t.Fatalf("D received %d ARP request copies, want 1", reqs)
	}
}

func TestRaceSelectsLowerLatencyPath(t *testing.T) {
	// Diamond: S - A - {fast: F, slow: W} - Z - D. The fast branch has
	// 5µs links, the slow one 500µs. The lock at Z must point at the fast
	// branch, and data must flow over it.
	net := netsim.NewNetwork(1)
	s, d := newHost("S", 1), newHost("D", 2)
	a := New(net, "A", 1, DefaultConfig())
	f := New(net, "F", 2, DefaultConfig())
	w := New(net, "W", 3, DefaultConfig())
	z := New(net, "Z", 4, DefaultConfig())
	net.Connect(s, a, link(5*time.Microsecond))
	net.Connect(a, f, link(5*time.Microsecond))
	net.Connect(a, w, link(500*time.Microsecond))
	lf := net.Connect(f, z, link(5*time.Microsecond))
	net.Connect(w, z, link(500*time.Microsecond))
	net.Connect(z, d, link(5*time.Microsecond))
	for _, b := range []*Bridge{a, f, w, z} {
		b.Start()
	}
	net.RunFor(10 * time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(50 * time.Millisecond)

	e, ok := z.EntryFor(s.mac)
	if !ok {
		t.Fatal("Z has no S entry")
	}
	if e.Port != lf.B() {
		t.Fatalf("Z locked S via %s, want fast port %s", e.Port, lf.B())
	}
	// Data S→D must transit the fast bridge, not the slow one.
	fFwd := f.Stats().Forwarded
	net.Engine.At(net.Now(), func() { s.sendData(d.mac, 1) })
	net.RunFor(10 * time.Millisecond)
	if len(d.dataFrames()) != 1 {
		t.Fatalf("D got %d data frames, want 1", len(d.dataFrames()))
	}
	if f.Stats().Forwarded <= fFwd {
		t.Fatal("data did not cross the fast branch")
	}
	if w.Stats().Forwarded != 0 {
		t.Fatal("data crossed the slow branch")
	}
}

func TestPathSymmetry(t *testing.T) {
	net, s, d, bs := paper5(3)
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(50 * time.Millisecond)
	net.Engine.At(net.Now(), func() {
		s.sendData(d.mac, 1)
		d.sendData(s.mac, 2)
	})
	net.RunFor(50 * time.Millisecond)
	if len(d.dataFrames()) != 1 || len(s.dataFrames()) != 1 {
		t.Fatalf("delivery failed: S=%d D=%d", len(s.dataFrames()), len(d.dataFrames()))
	}
	// Symmetry: on every bridge holding both entries, the S-entry port and
	// D-entry port must differ (traffic enters one way, leaves the other),
	// and a bridge on the path must see traffic both ways or not at all.
	for _, b := range bs {
		es, okS := b.EntryFor(s.mac)
		ed, okD := b.EntryFor(d.mac)
		if okS && okD && es.State == StateLearned && ed.State == StateLearned {
			if es.Port == ed.Port {
				t.Fatalf("%s: S and D learned on the same port %s", b.Name(), es.Port)
			}
		}
	}
}

func TestUnknownUnicastIsNeverFlooded(t *testing.T) {
	net, s, d, bs := paper5(1)
	net.RunFor(time.Millisecond)
	// No discovery at all: send data blind. It must not reach D by
	// flooding (repair can't find D either since D never spoke), and no
	// bridge may have flooded it.
	net.Engine.At(net.Now(), func() { s.sendData(d.mac, 9) })
	net.RunFor(time.Second)
	if len(d.dataFrames()) != 0 {
		t.Fatal("unknown unicast reached D — must have been flooded")
	}
	for _, b := range bs {
		if b.Stats().RepairsStarted == 0 && b.Name() == "B2" {
			t.Fatal("edge bridge did not attempt repair")
		}
	}
}

func TestLockExpiryOffPath(t *testing.T) {
	net, s, d, bs := paper5(1)
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(50 * time.Millisecond)
	// B4 is off the shortest path; its S entry is a lock that must expire
	// (no reply passed through it).
	b4 := bsByName(bs, "B4")
	if e, ok := b4.EntryFor(s.mac); ok && e.State == StateLearned {
		t.Fatal("off-path bridge has a learned S entry")
	}
	net.RunFor(DefaultConfig().LockTimeout.D() + time.Millisecond)
	if _, ok := b4.EntryFor(s.mac); ok {
		t.Fatal("off-path lock did not expire")
	}
	// On-path bridges keep learned entries.
	if e, ok := bsByName(bs, "B2").EntryFor(s.mac); !ok || e.State != StateLearned {
		t.Fatal("on-path learned entry missing after lock window")
	}
}

func TestRepathingAfterLearnedEntry(t *testing.T) {
	// After a first exchange, make the previously fast branch slow and
	// re-ARP: the new race must move the path to the other branch.
	net := netsim.NewNetwork(1)
	s, d := newHost("S", 1), newHost("D", 2)
	a := New(net, "A", 1, DefaultConfig())
	f := New(net, "F", 2, DefaultConfig())
	w := New(net, "W", 3, DefaultConfig())
	z := New(net, "Z", 4, DefaultConfig())
	net.Connect(s, a, link(5*time.Microsecond))
	net.Connect(a, f, link(5*time.Microsecond))
	net.Connect(a, w, link(50*time.Microsecond))
	net.Connect(f, z, link(5*time.Microsecond))
	lw := net.Connect(w, z, link(50*time.Microsecond))
	net.Connect(z, d, link(5*time.Microsecond))
	for _, b := range []*Bridge{a, f, w, z} {
		b.Start()
	}
	net.RunFor(10 * time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(300 * time.Millisecond)

	// Fast branch wins initially.
	if e, _ := z.EntryFor(s.mac); e.Port == lw.B() {
		t.Fatal("slow branch won the first race")
	}
	// Cut the fast branch entirely, then re-ARP.
	net.Engine.At(net.Now(), func() { f.Port(0).Link().SetUp(false) })
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(300 * time.Millisecond)
	e, ok := z.EntryFor(s.mac)
	if !ok || e.Port != lw.B() {
		t.Fatal("re-ARP did not move the path to the surviving branch")
	}
	net.Engine.At(net.Now(), func() { s.sendData(d.mac, 3) })
	net.RunFor(50 * time.Millisecond)
	if len(d.dataFrames()) != 1 {
		t.Fatal("data did not flow over the repathed route")
	}
}

func TestPathRepairAfterLinkFailure(t *testing.T) {
	// Diamond with two equal branches; cut the active one mid-flow. The
	// Path Repair exchange must restore connectivity without any host
	// re-ARPing, within well under a second (§3.2).
	net := netsim.NewNetwork(1)
	s, d := newHost("S", 1), newHost("D", 2)
	a := New(net, "A", 1, DefaultConfig())
	f := New(net, "F", 2, DefaultConfig())
	w := New(net, "W", 3, DefaultConfig())
	z := New(net, "Z", 4, DefaultConfig())
	net.Connect(s, a, link(5*time.Microsecond))
	net.Connect(a, f, link(5*time.Microsecond))
	net.Connect(a, w, link(20*time.Microsecond))
	lf := net.Connect(f, z, link(5*time.Microsecond))
	net.Connect(w, z, link(20*time.Microsecond))
	net.Connect(z, d, link(5*time.Microsecond))
	for _, b := range []*Bridge{a, f, w, z} {
		b.Start()
	}
	net.RunFor(10 * time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(100 * time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendData(d.mac, 1) })
	net.RunFor(100 * time.Millisecond)
	if len(d.dataFrames()) != 1 {
		t.Fatal("no connectivity before failure")
	}

	// Cut the fast branch; the next frame hits a miss at F (its D entry
	// was purged with the link). F buffers it and reports a PathFail
	// toward S; A (S's edge bridge) floods a PathRequest; Z answers for D.
	// The new path S–A–W–Z–D bypasses F, so the buffered frame itself is
	// sacrificed (TCP retransmission recovers it in the Figure 3 demo) —
	// but the path must be restored for everything after it.
	net.Engine.At(net.Now(), func() { lf.SetUp(false) })
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendData(d.mac, 2) })
	net.RunFor(300 * time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendData(d.mac, 3) })
	net.RunFor(time.Second)
	frames := d.dataFrames()
	if len(frames) < 2 {
		t.Fatalf("repair failed: D has %d data frames, want ≥ 2", len(frames))
	}
	var last layers.Ethernet
	if err := last.DecodeFromBytes(frames[len(frames)-1]); err != nil {
		t.Fatal(err)
	}
	if last.Payload()[0] != 3 {
		t.Fatalf("post-repair frame tag = %d, want 3", last.Payload()[0])
	}
	// The repair must have used control frames, not host ARP.
	repairs := a.Stats().RepairsStarted + z.Stats().RepairsStarted + f.Stats().RepairsStarted
	if repairs == 0 {
		t.Fatal("no repair was started")
	}
	replies := a.Stats().PathRepliesSent + z.Stats().PathRepliesSent +
		f.Stats().PathRepliesSent + w.Stats().PathRepliesSent
	if replies == 0 {
		t.Fatal("no PathReply was sent")
	}
	if countARP(d.got) != 1 {
		t.Fatal("repair leaked extra ARP traffic to the hosts")
	}
	// And the reverse direction must also work post-repair.
	net.Engine.At(net.Now(), func() { d.sendData(s.mac, 4) })
	net.RunFor(time.Second)
	if len(s.dataFrames()) != 1 {
		t.Fatal("reverse path broken after repair")
	}
}

func TestRepairTimeoutDropsBufferedFrames(t *testing.T) {
	// D never exists: repair can't succeed; buffered frames must be
	// dropped after RepairTimeout and the repair state cleaned up.
	net := netsim.NewNetwork(1)
	s := newHost("S", 1)
	a := New(net, "A", 1, DefaultConfig())
	b2 := New(net, "B", 2, DefaultConfig())
	net.Connect(s, a, link(5*time.Microsecond))
	net.Connect(a, b2, link(5*time.Microsecond))
	a.Start()
	b2.Start()
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(layers.HostIP(9)) }) // locks S
	net.RunFor(10 * time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendData(layers.HostMAC(9), 1) })
	net.RunFor(2 * time.Second)
	if a.Stats().RepairDropped == 0 {
		t.Fatal("buffered frame not dropped on repair timeout")
	}
	if a.PendingRepairs() != 0 {
		t.Fatal("repair state leaked")
	}
}

// TestRepairBufferOverflow sends RepairBuffer+3 frames toward a
// destination nobody can find, well inside RepairTimeout: the buffer keeps
// RepairBuffer of them and drops the three it has no room for.
func TestRepairBufferOverflow(t *testing.T) {
	net := netsim.NewNetwork(1)
	s := newHost("S", 1)
	a := New(net, "A", 1, DefaultConfig())
	b2 := New(net, "B", 2, DefaultConfig())
	net.Connect(s, a, link(5*time.Microsecond))
	net.Connect(a, b2, link(5*time.Microsecond))
	a.Start()
	b2.Start()
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(layers.HostIP(9)) })
	net.RunFor(10 * time.Millisecond)
	net.Engine.At(net.Now(), func() {
		for i := range RepairBuffer + 3 {
			s.sendData(layers.HostMAC(9), byte(i))
		}
	})
	net.RunFor(RepairTimeout / 5)
	if a.Stats().RepairDropped != 3 {
		t.Fatalf("RepairDropped = %d, want 3 (buffer cap %d)", a.Stats().RepairDropped, RepairBuffer)
	}
	if a.PendingRepairs() != 1 {
		t.Fatalf("PendingRepairs = %d, want the one repair still waiting", a.PendingRepairs())
	}
}

func TestLinkDownPurgesEntries(t *testing.T) {
	net, s, d, bs := paper5(1)
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(50 * time.Millisecond)
	b5 := bsByName(bs, "B5")
	// Cut B5's uplink used for S.
	e, ok := b5.EntryFor(s.mac)
	if !ok {
		t.Fatal("B5 has no S entry")
	}
	net.Engine.At(net.Now(), func() { e.Port.Link().SetUp(false) })
	net.RunFor(time.Millisecond)
	if _, ok := b5.EntryFor(s.mac); ok {
		t.Fatal("entry survived link failure")
	}
	if b5.Stats().EntriesPurged == 0 {
		t.Fatal("purge not counted")
	}
}

func TestHairpinDrop(t *testing.T) {
	// Two hosts on the same bridge port cannot exist in this model, so
	// synthesize: teach the bridge that X is on S's port, then let S send
	// to X; the bridge must filter, not loop it back.
	net := netsim.NewNetwork(1)
	s := newHost("S", 1)
	a := New(net, "A", 1, DefaultConfig())
	other := newHost("O", 3)
	net.Connect(s, a, link(5*time.Microsecond))
	net.Connect(a, other, link(5*time.Microsecond))
	a.Start()
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() {
		// X (HostMAC 7) announces itself from S's segment.
		frame, _ := layers.Serialize(
			&layers.Ethernet{Dst: layers.BroadcastMAC, Src: layers.HostMAC(7), EtherType: layers.EtherTypeARP},
			&layers.ARP{Operation: layers.ARPRequest, SenderHW: layers.HostMAC(7), SenderIP: layers.HostIP(7), TargetIP: layers.HostIP(8)},
		)
		s.port.Send(frame)
	})
	net.RunFor(10 * time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendData(layers.HostMAC(7), 1) })
	net.RunFor(10 * time.Millisecond)
	if a.Stats().HairpinDrop != 1 {
		t.Fatalf("HairpinDrop = %d, want 1", a.Stats().HairpinDrop)
	}
}

func TestLoopFreedomOnRandomTopologies(t *testing.T) {
	// Property (paper §1: "exhibits loop-freedom"): one broadcast on a
	// random connected multigraph yields at most one flood per bridge —
	// total transmitted copies ≤ 2·|links| — and the flood terminates.
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 12; trial++ {
		n := 3 + rng.Intn(6)
		net := netsim.NewNetwork(int64(trial))
		bs := make([]*Bridge, n)
		for i := range bs {
			bs[i] = New(net, "r"+string(rune('a'+i)), i+1, DefaultConfig())
		}
		links := 0
		for i := 1; i < n; i++ {
			net.Connect(bs[i], bs[rng.Intn(i)], link(time.Duration(1+rng.Intn(50))*time.Microsecond))
			links++
		}
		for e := rng.Intn(2 * n); e > 0; e-- {
			i, j := rng.Intn(n), rng.Intn(n)
			if i != j {
				net.Connect(bs[i], bs[j], link(time.Duration(1+rng.Intn(50))*time.Microsecond))
				links++
			}
		}
		s := newHost("S", 1)
		net.Connect(s, bs[0], link(time.Microsecond))
		d := newHost("D", 2)
		net.Connect(d, bs[n-1], link(time.Microsecond))
		for _, b := range bs {
			b.Start()
		}
		var copies int
		net.Tap(func(ev netsim.TapEvent) {
			if ev.Kind == netsim.TapSend && layers.FrameEtherType(ev.Frame) == layers.EtherTypeARP {
				copies++
			}
		})
		net.RunFor(time.Millisecond)
		net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
		net.RunFor(100 * time.Millisecond) // termination: event queue must drain in bounded copies
		// +1 for the host's own transmission; replies are unicast ARP too,
		// so allow the reply's hop count (≤ n+1).
		bound := 2*links + 1 + (n + 1)
		if copies > bound {
			t.Fatalf("trial %d: %d ARP copies for %d links (bound %d) — loop suspected",
				trial, copies, links, bound)
		}
		if len(d.got) == 0 {
			t.Fatalf("trial %d: request never reached D", trial)
		}
	}
}

func TestNoBlockedLinks(t *testing.T) {
	// Paper §1: ARP-Path "does not block links". After discovery, every
	// link must still accept and forward traffic — verified by checking
	// that no bridge port is administratively excluded: ARP-Path has no
	// such state at all, so we assert floods exit every up port.
	net, s, _, bs := paper5(1)
	net.RunFor(time.Millisecond)
	b2 := bsByName(bs, "B2")
	sent := map[string]bool{}
	net.Tap(func(ev netsim.TapEvent) {
		if ev.Kind == netsim.TapSend && ev.From.Node() == netsim.Node(b2) {
			sent[ev.From.String()] = true
		}
	})
	net.Engine.At(net.Now(), func() { s.sendARPRequest(layers.HostIP(99)) })
	net.RunFor(10 * time.Millisecond)
	// B2 has 3 ports (S, B1, B3); the request from S must leave both
	// trunk ports.
	if len(sent) != 2 {
		t.Fatalf("flood used %d of B2's ports, want 2 (no blocking)", len(sent))
	}
}

func TestTransparencyHostsSeeNoControlFrames(t *testing.T) {
	net, s, d, _ := paper5(1)
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(100 * time.Millisecond)
	for _, h := range []*host{s, d} {
		for _, f := range h.got {
			if layers.FrameEtherType(f) == layers.EtherTypePathCtl {
				t.Fatalf("%s received bridge control traffic", h.name)
			}
		}
	}
}

func TestProxySuppressesRepeatARP(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proxy = true
	net := netsim.NewNetwork(1)
	s, d, x := newHost("S", 1), newHost("D", 2), newHost("X", 3)
	a := New(net, "A", 1, cfg)
	b2 := New(net, "B", 2, cfg)
	net.Connect(s, a, link(5*time.Microsecond))
	net.Connect(x, a, link(5*time.Microsecond))
	net.Connect(a, b2, link(5*time.Microsecond))
	net.Connect(b2, d, link(5*time.Microsecond))
	a.Start()
	b2.Start()
	net.RunFor(time.Millisecond)

	// First exchange: S↔D discovers normally and seeds the proxy cache.
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(100 * time.Millisecond)
	if a.Stats().ProxyConverted != 0 {
		t.Fatal("proxy converted before any cache existed")
	}

	// X asks for D: the edge bridge holds D's binding and a learned path —
	// it must convert the broadcast to a unicast (EtherProxy style), so D
	// still sees the request and answers, but nothing floods.
	var broadcastARPs int
	net.Tap(func(ev netsim.TapEvent) {
		if ev.Kind == netsim.TapDeliver && layers.FrameDst(ev.Frame).IsBroadcast() &&
			layers.FrameEtherType(ev.Frame) == layers.EtherTypeARP {
			broadcastARPs++
		}
	})
	dARPBefore := countARP(d.got)
	net.Engine.At(net.Now(), func() { x.sendARPRequest(d.ip) })
	net.RunFor(100 * time.Millisecond)
	if a.Stats().ProxyConverted != 1 {
		t.Fatalf("ProxyConverted = %d, want 1", a.Stats().ProxyConverted)
	}
	// Only the X→bridge hop carries the broadcast; the fabric does not.
	if broadcastARPs != 1 {
		t.Fatalf("broadcast ARP deliveries = %d, want 1 (host link only)", broadcastARPs)
	}
	if got := countARP(d.got); got != dARPBefore+1 {
		t.Fatal("converted unicast request did not reach D")
	}
	if len(x.got) == 0 {
		t.Fatal("X never got D's reply")
	}
	// And X can now send data to D because source learning keeps the
	// return path alive along the forward route.
	net.Engine.At(net.Now(), func() { x.sendData(d.mac, 5) })
	net.RunFor(100 * time.Millisecond)
	if len(d.dataFrames()) != 1 {
		t.Fatal("data after proxied ARP failed")
	}
}

func countARP(frames [][]byte) int {
	n := 0
	for _, f := range frames {
		if layers.FrameEtherType(f) == layers.EtherTypeARP {
			n++
		}
	}
	return n
}

func TestProxyMissFloodsNormally(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proxy = true
	net := netsim.NewNetwork(1)
	s, d := newHost("S", 1), newHost("D", 2)
	a := New(net, "A", 1, cfg)
	net.Connect(s, a, link(5*time.Microsecond))
	net.Connect(a, d, link(5*time.Microsecond))
	a.Start()
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(50 * time.Millisecond)
	if a.Stats().ProxyMisses == 0 {
		t.Fatal("first request should miss the proxy cache")
	}
	if countARP(d.got) != 1 {
		t.Fatal("missed request did not flood to D")
	}
}

func TestLockTableBasics(t *testing.T) {
	net := netsim.NewNetwork(1)
	a, b := newHost("a", 1), newHost("b", 2)
	l := net.Connect(a, b, link(0))
	tb := NewLockTable(100*time.Millisecond, time.Second)
	m := layers.HostMAC(1)

	tb.Lock(m, l.A(), 0)
	if e, ok := tb.Get(m, 50*time.Millisecond); !ok || e.State != StateLocked {
		t.Fatal("lock not stored")
	}
	if _, ok := tb.Get(m, 100*time.Millisecond); ok {
		t.Fatal("lock survived its window")
	}
	tb.Learn(m, l.A(), 0)
	if e, ok := tb.Get(m, 500*time.Millisecond); !ok || e.State != StateLearned {
		t.Fatal("learn not stored")
	}
	tb.Refresh(m, 900*time.Millisecond)
	if _, ok := tb.Get(m, 1800*time.Millisecond); !ok {
		t.Fatal("refresh did not extend learned entry")
	}
	tb.Delete(m)
	if tb.Len() != 0 {
		t.Fatal("delete failed")
	}
	tb.Lock(layers.BroadcastMAC, l.A(), 0)
	if tb.Len() != 0 {
		t.Fatal("multicast source locked")
	}
}

func TestLockTableSnapshotAndFlush(t *testing.T) {
	net := netsim.NewNetwork(1)
	a, b := newHost("a", 1), newHost("b", 2)
	l := net.Connect(a, b, link(0))
	tb := NewLockTable(100*time.Millisecond, time.Second)
	tb.Lock(layers.HostMAC(1), l.A(), 0)
	tb.Learn(layers.HostMAC(2), l.B(), 0)
	snap := tb.Snapshot(50 * time.Millisecond)
	if len(snap) != 2 {
		t.Fatalf("snapshot len %d", len(snap))
	}
	snap = tb.Snapshot(500 * time.Millisecond)
	if len(snap) != 1 {
		t.Fatalf("snapshot after lock expiry len %d", len(snap))
	}
	tb.FlushExpired(500 * time.Millisecond)
	if tb.Len() != 1 {
		t.Fatal("FlushExpired missed")
	}
	tb.FlushPort(l.B())
	if tb.Len() != 0 {
		t.Fatal("FlushPort missed")
	}
}

func TestEntryStateString(t *testing.T) {
	if StateLocked.String() != "locked" || StateLearned.String() != "learned" {
		t.Fatal("state strings")
	}
}

func TestConfigValidation(t *testing.T) {
	net := netsim.NewNetwork(1)
	bad := []Config{
		{LockTimeout: 0},
		{LockTimeout: -1},
		{LockTimeout: 1, TableCapacity: 4},
		{LockTimeout: 1, TablePolicy: "fifo"},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("config %d accepted", i)
				}
			}()
			New(net, "x"+string(rune('0'+i)), i+1, cfg)
		}()
	}
}

func BenchmarkDiscoveryPaper5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		net, s, d, _ := paper5(1)
		net.RunFor(time.Millisecond)
		net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
		net.RunFor(10 * time.Millisecond)
	}
}

func BenchmarkUnicastForwardingPath(b *testing.B) {
	net, s, d, _ := paper5(1)
	net.RunFor(time.Millisecond)
	net.Engine.At(net.Now(), func() { s.sendARPRequest(d.ip) })
	net.RunFor(10 * time.Millisecond)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Engine.At(net.Now(), func() { s.sendData(d.mac, byte(i)) })
		net.RunFor(200 * time.Microsecond)
	}
}
