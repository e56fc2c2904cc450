package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/flowpath"
	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/layers"
	"repro/internal/learning"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tables"
	"repro/internal/topo"
)

// The micro lines of the ledger: isolated loops over one layer's public
// functions, built here in the harness. Each is the cheapest of three
// repetitions (the repetition least disturbed by the machine), in ns per
// operation. They do not depend on the workload or the seed; every traced
// run measures them so that each run's ledger is taken on one machine
// state.

const microReps = 3

// microDiv divides every micro's iteration count; perf_test.go raises it
// so the tiny end-to-end tests stay quick. It is 1 in every real run.
var microDiv = 1

// bestNS runs loop(n) microReps times, n being ops scaled by microDiv, and
// returns the lowest ns per op.
func bestNS(ops int, loop func(n int)) float64 {
	n := ops / microDiv
	best := 0.0
	for r := 0; r < microReps; r++ {
		start := time.Now()
		loop(n)
		ns := float64(time.Since(start).Nanoseconds()) / float64(n)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

// runMicros writes every micro line into m. It returns the one reading the
// ledger needs that BENCHMARK.json does not list: schedule+run with a single
// event pending, the queue's floor.
func runMicros(tr *tracer, m map[string]float64) (scheduleRunD1 float64) {
	id := tr.begin("micro")
	defer tr.end(id)
	one := func(name string, fn func() float64) {
		tr.in(name, func() { m[name] = fn() })
	}

	tr.in("sim.micro.schedule_run_ns_d1", func() { scheduleRunD1 = microScheduleRun(1) })
	one("sim.micro.schedule_run_ns_d64", func() float64 { return microScheduleRun(64) })
	one("sim.micro.schedule_run_ns_d4096", func() float64 { return microScheduleRun(4096) })
	one("sim.micro.wheel_timer_ns", microWheel)

	link := microLink()
	tr.in("netsim.micro.link_frame_ns", func() { m["netsim.micro.link_frame_ns"] = link.frameNS() })

	one("layers.micro.view_decode_udp_ns", func() float64 { return microDecode(udpFrame()) })
	one("layers.micro.view_decode_arp_ns", func() float64 { return microDecode(arpFrame()) })
	one("layers.micro.serialize_udp_ns", microSerialize)

	one("core.micro.hop_ns", microHop)
	one("core.micro.table_hit_ns", func() float64 { return microLockTableHit(link.port) })
	one("core.micro.table_write_ns", func() float64 { return microLockTableWrite(link.port) })
	one("flowpath.micro.pair_hit_ns", func() float64 { return microPairHit(link.port) })
	one("flowpath.micro.pair_write_ns", func() float64 { return microPairWrite(link.port) })
	one("learning.micro.table_hit_ns", func() float64 { return microLearningHit(link.port) })
	one("learning.micro.table_write_ns", func() float64 { return microLearningWrite(link.port) })
	one("tables.micro.tracker_touch_ns", microTrackerTouch)

	// The host line is net of the link it has to cross to be observable.
	one("host.micro.udp_send_ns", func() float64 { return max(0, microHostPair()-m["netsim.micro.link_frame_ns"]) })
	return scheduleRunD1
}

// --- sim ----------------------------------------------------------------

// ticker is a self-rescheduling event: `depth` of them keep the queue at
// a constant depth while `left` events run.
type ticker struct {
	e      *sim.Engine
	period time.Duration
	left   *int
}

func (t *ticker) RunEvent(int32) {
	if *t.left > 0 {
		*t.left--
		t.e.ScheduleRunner(t.e.Now()+t.period, t, 0)
	}
}

// microScheduleRun is one ScheduleRunner plus one dispatch with `depth`
// events pending.
func microScheduleRun(depth int) float64 {
	return bestNS(1_000_000, func(events int) {
		e := sim.New(1)
		left := events - depth
		for i := 0; i < depth; i++ {
			e.ScheduleRunner(time.Duration(i+1), &ticker{e: e, period: time.Duration(depth), left: &left}, 0)
		}
		e.Run()
	})
}

// microWheel is one Wheel.After, half of them stopped, half fired.
func microWheel() float64 {
	return bestNS(400_000, func(timers int) {
		e := sim.New(1)
		w := sim.NewWheel(e, time.Millisecond)
		fired := 0
		fn := func() { fired++ }
		for i := 0; i < timers; i++ {
			t := w.After(10*time.Millisecond, fn)
			if i&1 == 0 {
				w.Stop(t)
			}
			if i&1023 == 1023 {
				e.RunFor(20 * time.Millisecond)
			}
		}
		e.Run()
	})
}

// --- netsim -------------------------------------------------------------

// stubNode terminates a link and counts what arrives. It borrows each
// frame only for the call, as the ownership contract requires.
type stubNode struct {
	name string
	port *netsim.Port
	rx   int
}

func (s *stubNode) Name() string                            { return s.name }
func (s *stubNode) AttachPort(p *netsim.Port)               { s.port = p }
func (s *stubNode) HandleFrame(*netsim.Port, *netsim.Frame) { s.rx++ }
func (s *stubNode) PortStatusChanged(*netsim.Port, bool)    {}

// stubLink is two stub nodes and the link between them; its port also
// stands in wherever a table micro needs a port to point entries at.
type stubLink struct {
	net  *netsim.Network
	a, b *stubNode
	port *netsim.Port
}

func microLink() *stubLink {
	l := &stubLink{net: netsim.NewNetwork(1), a: &stubNode{name: "a"}, b: &stubNode{name: "b"}}
	l.net.AddNode(l.a)
	l.net.AddNode(l.b)
	l.net.Connect(l.a, l.b, netsim.DefaultLinkConfig())
	l.port = l.a.port
	return l
}

// frameNS is one minimum-size frame through Port.Send, the link's two
// events and delivery.
func (l *stubLink) frameNS() float64 {
	frame := make([]byte, 64)
	return bestNS(500_000, func(frames int) {
		for i := 0; i < frames; i++ {
			l.port.Send(frame)
			l.net.Run()
		}
	})
}

// --- layers -------------------------------------------------------------

func mustSerialize(ls ...layers.SerializableLayer) []byte {
	b, err := layers.Serialize(ls...)
	if err != nil {
		panic(fmt.Sprintf("perf: serialize: %v", err))
	}
	return b
}

func udpLayers() []layers.SerializableLayer {
	src, dst := layers.HostIP(1), layers.HostIP(2)
	return []layers.SerializableLayer{
		&layers.Ethernet{Dst: layers.HostMAC(2), Src: layers.HostMAC(1), EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{TTL: 64, Protocol: layers.IPProtoUDP, Src: src, Dst: dst},
		&layers.UDP{SrcPort: 9001, DstPort: 9001, SrcIP: src, DstIP: dst},
		layers.Payload(make([]byte, flowPayload)),
	}
}

func udpFrame() []byte { return mustSerialize(udpLayers()...) }

func arpFrame() []byte {
	return mustSerialize(
		&layers.Ethernet{Dst: layers.BroadcastMAC, Src: layers.HostMAC(1), EtherType: layers.EtherTypeARP},
		&layers.ARP{Operation: layers.ARPRequest, SenderHW: layers.HostMAC(1), SenderIP: layers.HostIP(1), TargetIP: layers.HostIP(2)},
	)
}

var viewSink layers.FrameView

func microDecode(frame []byte) float64 {
	return bestNS(2_000_000, func(decodes int) {
		var v layers.FrameView
		for i := 0; i < decodes; i++ {
			v.Decode(frame)
		}
		viewSink = v
	})
}

func microSerialize() float64 {
	ls := udpLayers()
	buf := layers.NewSerializeBuffer()
	return bestNS(500_000, func(packets int) {
		for i := 0; i < packets; i++ {
			if err := layers.SerializeLayers(buf, layers.FixAll, ls...); err != nil {
				panic(fmt.Sprintf("perf: serialize: %v", err))
			}
		}
	})
}

// --- bridge + core ------------------------------------------------------

// linePumpNS is ns per frame pumped across an established line of n
// bridges.
func linePumpNS(n, frames int) float64 {
	built := topo.Line(topo.DefaultOptions(topo.ARPPath, 1), n)
	h1, h2 := built.Host("H1"), built.Host("H2")
	built.Engine.At(built.Now(), func() { h1.Ping(h2.IP(), 0, time.Second, func(host.PingResult) {}) })
	built.RunFor(2 * time.Second)
	frame := mustSerialize(
		&layers.Ethernet{Dst: h2.MAC(), Src: h1.MAC(), EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{TTL: 64, Protocol: 253, Src: h1.IP(), Dst: h2.IP()},
		layers.Payload(make([]byte, 64)),
	)
	port := h1.Port()
	return bestNS(frames, func(frames int) {
		for i := 0; i < frames; i++ {
			port.Send(frame)
			built.Network.Run()
		}
	})
}

// microHop is one bridge hop — FrameView decode, table hit and refresh,
// egress, and the link to the next bridge: a 16-bridge line minus a
// 1-bridge line, over the 15 hops between them.
func microHop() float64 {
	return max(0, (linePumpNS(16, 60_000)-linePumpNS(1, 300_000))/15)
}

const (
	tableSet       = 10_000 // working set of the table micros
	tableOps       = 1_000_000
	tableBound     = tableSet / 4           // capacity of the write micros: every insert past it evicts
	tableWriteStep = 100 * time.Microsecond // churn's conversation spacing: ~2000 entries inside the lock window
)

func lruBound() tables.Config { return tables.Config{Capacity: tableBound, Policy: tables.PolicyLRU} }

func microLockTableHit(port *netsim.Port) float64 {
	t := core.NewLockTable(200*time.Millisecond, 120*time.Second)
	keys := make([]uint64, tableSet)
	for i := range keys {
		keys[i] = layers.HostMAC(i + 1).Uint64()
		t.LearnKey(keys[i], port, 0)
	}
	return bestNS(tableOps, func(ops int) {
		for i := 0; i < ops; i++ {
			k := keys[i%tableSet]
			now := time.Duration(i) * time.Microsecond
			if _, ok := t.GetKey(k, now); !ok {
				panic("perf: learned entry vanished")
			}
			t.RefreshKey(k, now)
		}
	})
}

func microLockTableWrite(port *netsim.Port) float64 {
	return bestNS(tableOps, func(ops int) {
		t := core.NewBoundedLockTable(200*time.Millisecond, 120*time.Second, lruBound())
		for i := 0; i < ops; i++ {
			k := layers.HostMAC(i%tableSet + 1).Uint64()
			now := time.Duration(i) * tableWriteStep
			t.LockKey(k, port, now)
			t.LearnKey(k, port, now)
		}
	})
}

func pairKeys() []flowpath.PairKey {
	keys := make([]flowpath.PairKey, tableSet)
	for i := range keys {
		keys[i] = flowpath.PairKey{Hi: layers.HostMAC(2*i + 1).Uint64(), Lo: layers.HostMAC(2*i + 2).Uint64()}
	}
	return keys
}

func microPairHit(port *netsim.Port) float64 {
	t := flowpath.NewPairTable(200*time.Millisecond, 120*time.Second)
	keys := pairKeys()
	for _, k := range keys {
		t.Learn(k, port, 0)
	}
	return bestNS(tableOps, func(ops int) {
		for i := 0; i < ops; i++ {
			k := keys[i%tableSet]
			now := time.Duration(i) * time.Microsecond
			if _, ok := t.Get(k, now); !ok {
				panic("perf: learned pair vanished")
			}
			t.Refresh(k, now)
		}
	})
}

func microPairWrite(port *netsim.Port) float64 {
	keys := pairKeys()
	return bestNS(tableOps, func(ops int) {
		t := flowpath.NewBoundedPairTable(200*time.Millisecond, 120*time.Second, lruBound(), true)
		for i := 0; i < ops; i++ {
			k := keys[i%tableSet]
			now := time.Duration(i) * tableWriteStep
			t.Lock(k, port, now)
			t.Learn(k, port, now)
		}
	})
}

func microLearningHit(port *netsim.Port) float64 {
	t := learning.NewTable(300 * time.Second)
	keys := make([]uint64, tableSet)
	for i := range keys {
		keys[i] = layers.HostMAC(i + 1).Uint64()
		t.LearnKey(keys[i], port, 0)
	}
	return bestNS(tableOps, func(ops int) {
		for i := 0; i < ops; i++ {
			if _, ok := t.LookupKey(keys[i%tableSet], time.Duration(i)*time.Microsecond); !ok {
				panic("perf: learned address vanished")
			}
		}
	})
}

func microLearningWrite(port *netsim.Port) float64 {
	return bestNS(tableOps, func(ops int) {
		t := learning.NewBoundedTable(300*time.Second, lruBound())
		for i := 0; i < ops; i++ {
			t.LearnKey(layers.HostMAC(i%tableSet+1).Uint64(), port, time.Duration(i)*tableWriteStep)
		}
	})
}

func microTrackerTouch() float64 {
	t := tables.NewTracker[uint64](tables.PolicyLRU)
	hs := make([]tables.Handle, tableSet)
	for i := range hs {
		hs[i] = t.Insert(uint64(i))
	}
	return bestNS(4_000_000, func(touches int) {
		for i := 0; i < touches; i++ {
			t.Touch(hs[(i*7919)%tableSet])
		}
	})
}

// --- host ---------------------------------------------------------------

// microHostPair is one cached-ARP UDP SendTo from a host, across one link,
// into a counting sink on another host: serialize + checksum, the link,
// receive-side decode and dispatch.
func microHostPair() float64 {
	net := netsim.NewNetwork(1)
	h1, h2 := host.New(net, "H1", 1), host.New(net, "H2", 2)
	net.Connect(h1, h2, netsim.DefaultLinkConfig())
	h1.Ping(h2.IP(), 0, time.Second, func(host.PingResult) {})
	net.Run()
	sink := app.NewSink(h2, 9001)
	sock := h1.UDP(9001, nil)
	payload := make([]byte, flowPayload)
	const datagrams = 300_000
	ns := bestNS(datagrams, func(datagrams int) {
		for i := 0; i < datagrams; i++ {
			sock.SendTo(h2.IP(), 9001, payload)
			net.Run()
		}
	})
	if want := microReps * (datagrams / microDiv); sink.Count() != want {
		panic(fmt.Sprintf("perf: host micro delivered %d of %d datagrams", sink.Count(), want))
	}
	return ns
}
