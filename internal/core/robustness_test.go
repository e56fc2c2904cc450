package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	hostpkg "repro/internal/host"
	"repro/internal/layers"
	"repro/internal/netsim"
)

// buildRandomFabric wires n ARP-Path bridges into a random 2-edge-connected-ish
// multigraph (ring + extra chords) with one host per bridge, so single
// link failures usually leave an alternative path.
func buildRandomFabric(seed int64, n int) (*netsim.Network, []*Bridge, []*hostpkg.Host) {
	net := netsim.NewNetwork(seed)
	rng := rand.New(rand.NewSource(seed))
	bridges := make([]*Bridge, n)
	for i := range bridges {
		bridges[i] = New(net, fmt.Sprintf("b%d", i+1), i+1, DefaultConfig())
	}
	cfg := netsim.DefaultLinkConfig()
	// Ring backbone guarantees redundancy for any single failure.
	for i := range bridges {
		net.Connect(bridges[i], bridges[(i+1)%n], cfg.WithDelay(time.Duration(1+rng.Intn(20))*time.Microsecond))
	}
	// Random chords.
	for c := 0; c < n/2; c++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i != j {
			net.Connect(bridges[i], bridges[j], cfg.WithDelay(time.Duration(1+rng.Intn(20))*time.Microsecond))
		}
	}
	hosts := make([]*hostpkg.Host, n)
	for i := range hosts {
		hosts[i] = hostpkg.New(net, fmt.Sprintf("h%d", i+1), i+1)
		net.Connect(hosts[i], bridges[i], cfg)
	}
	for _, b := range bridges {
		b.Start()
	}
	net.RunFor(time.Millisecond)
	return net, bridges, hosts
}

// TestRandomFailureSchedulesStayConnected is the repository's broadest
// property test: on random redundant fabrics, repeatedly cut one random
// trunk link carrying live state, and verify that hosts re-reach each
// other after the fabric repairs (with a re-ARP fallback mirroring real
// host caches expiring). The event-limit backstop doubles as a
// loop-freedom check throughout.
func TestRandomFailureSchedulesStayConnected(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		seed := int64(100 + trial)
		net, bridges, hosts := buildRandomFabric(seed, 6)
		rng := rand.New(rand.NewSource(seed))
		a := hosts[0]
		b := hosts[3]

		ping := func() bool {
			done, ok := false, false
			net.Engine.At(net.Now(), func() {
				a.Ping(b.IP(), 0, time.Second, func(r hostpkg.PingResult) {
					done, ok = true, r.Err == nil
				})
			})
			net.RunFor(3 * time.Second)
			return done && ok
		}

		if !ping() {
			t.Fatalf("trial %d: no initial connectivity", trial)
		}

		for round := 0; round < 3; round++ {
			// Cut a random live trunk link.
			var trunks []*netsim.Link
			for _, l := range net.Links() {
				if !l.Up() {
					continue
				}
				if _, isHost := l.A().Node().(*hostpkg.Host); isHost {
					continue
				}
				if _, isHost := l.B().Node().(*hostpkg.Host); isHost {
					continue
				}
				trunks = append(trunks, l)
			}
			if len(trunks) <= 1 {
				break // keep the fabric connected
			}
			cut := trunks[rng.Intn(len(trunks))]
			net.Engine.At(net.Now(), func() { cut.SetUp(false) })
			net.RunFor(10 * time.Millisecond)

			if stillConnected(bridges, a, b) {
				if !ping() {
					// Repair may need a re-ARP when the miss bridge could
					// not reach the destination's edge (both directions
					// broken at once); hosts do this naturally on cache
					// expiry — emulate it and retry once.
					net.Engine.At(net.Now(), func() {
						a.ARP().Flush()
						b.ARP().Flush()
					})
					if !ping() {
						t.Fatalf("trial %d round %d: connectivity not restored after cutting %v",
							trial, round, cut)
					}
				}
			} else {
				cut.SetUp(true) // partitioned: restore and continue
				net.RunFor(10 * time.Millisecond)
			}
		}
	}
}

// stillConnected checks bridge-level connectivity between the two hosts'
// edge bridges over up links (BFS on the physical graph).
func stillConnected(bridges []*Bridge, a, b *hostpkg.Host) bool {
	start := a.Port().Link()
	var from, to netsim.Node
	if n := start.A().Node(); n != netsim.Node(a) {
		from = n
	} else {
		from = start.B().Node()
	}
	end := b.Port().Link()
	if n := end.A().Node(); n != netsim.Node(b) {
		to = n
	} else {
		to = end.B().Node()
	}
	visited := map[netsim.Node]bool{from: true}
	queue := []netsim.Node{from}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		if n == to {
			return true
		}
		br, ok := n.(*Bridge)
		if !ok {
			continue
		}
		for _, p := range br.Ports() {
			if !p.Up() {
				continue
			}
			peer := p.Peer().Node()
			if _, isBridge := peer.(*Bridge); isBridge && !visited[peer] {
				visited[peer] = true
				queue = append(queue, peer)
			}
		}
	}
	return false
}

// TestRepairWhenBothDirectionsBreak exercises simultaneous bidirectional
// repair: cut the single shared link of two active flows in opposite
// directions; both ends trigger repair at once and both must converge
// without interfering (nonces and per-destination repair state keep the
// exchanges apart).
func TestRepairWhenBothDirectionsBreak(t *testing.T) {
	net := netsim.NewNetwork(1)
	h1 := hostpkg.New(net, "h1", 1)
	h2 := hostpkg.New(net, "h2", 2)
	b1 := New(net, "b1", 1, DefaultConfig())
	b2 := New(net, "b2", 2, DefaultConfig())
	b3 := New(net, "b3", 3, DefaultConfig())
	cfg := netsim.DefaultLinkConfig()
	// Two disjoint b1→b2 routes: direct, and via b3.
	direct := net.Connect(b1, b2, cfg)
	net.Connect(b1, b3, cfg.WithDelay(20*time.Microsecond))
	net.Connect(b3, b2, cfg.WithDelay(20*time.Microsecond))
	net.Connect(h1, b1, cfg)
	net.Connect(h2, b2, cfg)
	for _, b := range []*Bridge{b1, b2, b3} {
		b.Start()
	}
	net.RunFor(time.Millisecond)

	// Bidirectional traffic establishes the direct path both ways.
	oks := 0
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 0, time.Second, func(r hostpkg.PingResult) {
			if r.Err == nil {
				oks++
			}
		})
		h2.Ping(h1.IP(), 0, time.Second, func(r hostpkg.PingResult) {
			if r.Err == nil {
				oks++
			}
		})
	})
	net.RunFor(2 * time.Second)
	if oks != 2 {
		t.Fatal("initial bidirectional traffic failed")
	}

	// Cut the shared link, then fire traffic in BOTH directions in the
	// same instant: b1 misses h2 and b2 misses h1 simultaneously.
	net.Engine.At(net.Now(), func() { direct.SetUp(false) })
	net.RunFor(time.Millisecond)
	oks = 0
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 0, time.Second, func(r hostpkg.PingResult) {
			if r.Err == nil {
				oks++
			}
		})
		h2.Ping(h1.IP(), 0, time.Second, func(r hostpkg.PingResult) {
			if r.Err == nil {
				oks++
			}
		})
	})
	net.RunFor(3 * time.Second)
	if oks != 2 {
		t.Fatalf("bidirectional repair failed: %d/2 pings", oks)
	}
	// Both repaired flows must ride the b3 detour now.
	if e, ok := b3.EntryFor(layers.HostMAC(1)); !ok || e.State != StateLearned {
		t.Fatal("b3 does not carry h1 after repair")
	}
	if _, ok := b3.EntryFor(layers.HostMAC(2)); !ok {
		t.Fatal("b3 does not carry h2 after repair")
	}
}

// TestRepairNeedsLiveDestinationEntry documents a protocol boundary: the
// emulated ARP exchange can only be answered by a bridge that still holds
// the destination on an edge port. If the whole fabric forgot a silent
// host, the PathRequest goes unanswered (hosts ignore PathCtl —
// transparency) and recovery falls to the requester's real ARP, exactly
// as the paper's §2.1.4 "emulates an ARP exchange" implies.
func TestRepairNeedsLiveDestinationEntry(t *testing.T) {
	net := netsim.NewNetwork(1)
	h1 := hostpkg.New(net, "h1", 1)
	h2 := hostpkg.New(net, "h2", 2)
	b1 := New(net, "b1", 1, DefaultConfig())
	b2 := New(net, "b2", 2, DefaultConfig())
	cfg := netsim.DefaultLinkConfig()
	net.Connect(h1, b1, cfg)
	net.Connect(b1, b2, cfg)
	net.Connect(b2, h2, cfg)
	b1.Start()
	b2.Start()
	net.RunFor(time.Millisecond)

	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 0, time.Second, func(hostpkg.PingResult) {})
	})
	net.RunFor(LearnedTimeout + time.Second) // every learned entry has expired

	// h1 sends as if its ARP cache still held h2: a frame straight into a
	// fabric that has forgotten both hosts. The PathRequest is flooded
	// but nobody can answer for the silent h2, so the buffered frame is
	// dropped when the repair times out.
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: h2.MAC(), Src: h1.MAC(), EtherType: layers.EtherTypeIPv4},
		layers.Payload([]byte{1}),
	)
	if err != nil {
		t.Fatal(err)
	}
	net.Engine.At(net.Now(), func() { h1.Port().Send(frame) })
	net.RunFor(3 * time.Second)
	if b1.Stats().PathRequestsSent == 0 && b2.Stats().PathRequestsSent == 0 {
		t.Fatal("no PathRequest was flooded")
	}
	if b1.Stats().RepairDropped != 1 {
		t.Fatalf("RepairDropped = %d, want the one frame — who answered?", b1.Stats().RepairDropped)
	}
	// A real ARP from h1 (its cache expired too) reaches h2 itself, which
	// answers — full recovery.
	var rtt time.Duration
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 0, time.Second, func(r hostpkg.PingResult) { rtt = r.RTT })
	})
	net.RunFor(3 * time.Second)
	if rtt <= 0 {
		t.Fatal("host-level ARP did not recover the forgotten path")
	}
}
