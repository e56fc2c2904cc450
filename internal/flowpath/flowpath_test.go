package flowpath

import (
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/topo"
)

// pingOK runs one ARP-initiated ping exchange and reports the answered
// count.
func pingOK(t *testing.T, built *topo.Built, a, b string, pings int, spacing time.Duration) int {
	t.Helper()
	ha, hb := built.Host(a), built.Host(b)
	answered := 0
	built.Engine.At(built.Now(), func() {
		ha.PingSeries(hb.IP(), pings, 56, spacing, time.Second, func(rs []host.PingResult) {
			for _, r := range rs {
				if r.Err == nil {
					answered++
				}
			}
		})
	})
	built.RunFor(time.Duration(pings)*spacing + 3*time.Second)
	return answered
}

// TestFlowPathDeliversAndKeysPerPair pins the protocol's basic shape on a
// ring: an ARP-initiated conversation delivers, the winning path's
// bridges hold both directed pair entries, and bridges off the path hold
// no confirmed state once the discovery race window has expired — the
// table-size trade-off the scalability study defines Flow-Path by.
func TestFlowPathDeliversAndKeysPerPair(t *testing.T) {
	built := topo.Ring(topo.DefaultOptions(ProtoFlowPath, 1), 5)
	if got := pingOK(t, built, "H1", "H3", 3, 10*time.Millisecond); got != 3 {
		t.Fatalf("answered %d of 3 pings", got)
	}

	a, b := built.Host("H1").MAC(), built.Host("H3").MAC()
	now := built.Now()
	onPath, confirmed := 0, 0
	for _, br := range built.Bridges {
		fb := br.(*Bridge)
		_, fwd := fb.NextHop(a, b, now)
		_, rev := fb.NextHop(b, a, now)
		if fwd != rev {
			t.Fatalf("bridge %s holds asymmetric pair state (fwd=%v rev=%v)", br.Name(), fwd, rev)
		}
		if fwd {
			onPath++
			confirmed += len(fb.Pairs().Snapshot(now))
		}
	}
	// H1 and H3 are two hops apart either way around the 5-ring: the
	// winning path crosses 3 bridges, each holding exactly the 2 directed
	// entries of this pair.
	if onPath != 3 {
		t.Fatalf("pair state on %d bridges, want 3 (one path, nowhere else)", onPath)
	}
	if confirmed != 6 {
		t.Fatalf("%d pair entries across the path, want 6 (2 per hop)", confirmed)
	}

	// Let the race window close: transient host locks must be gone
	// everywhere (no bridge holds foreign stations), while the speakers'
	// edge bridges durably remember their own attached stations.
	built.RunFor(time.Second)
	now = built.Now()
	for _, br := range built.Bridges {
		fb := br.(*Bridge)
		own := built.Host("H" + br.Name()[1:]).MAC() // S<i> hosts H<i>
		snap := fb.Hosts().Snapshot(now)
		for mac := range snap {
			if mac != own {
				t.Fatalf("bridge %s still holds foreign host %v after the race window", br.Name(), mac)
			}
		}
		if (br.Name() == "S1" || br.Name() == "S3") && len(snap) != 1 {
			t.Fatalf("edge bridge %s forgot its own station (snapshot %v)", br.Name(), snap)
		}
	}
}

// TestFlowPathWalkSymmetry walks the pair entries edge to edge in both
// directions: §2.1.2's symmetric-path property holds per pair.
func TestFlowPathWalkSymmetry(t *testing.T) {
	built := topo.Grid(topo.DefaultOptions(ProtoFlowPath, 3), 3, 3)
	if got := pingOK(t, built, "H1", "H4", 2, 10*time.Millisecond); got != 2 {
		t.Fatalf("answered %d of 2 pings", got)
	}
	a, b := built.Host("H1"), built.Host("H4")
	now := built.Now()
	walk := func(from *host.Host, dst *host.Host) []string {
		var chain []string
		cur := from.Port().Peer().Node()
		for steps := 0; steps <= len(built.Bridges); steps++ {
			fb, ok := cur.(*Bridge)
			if !ok {
				return chain // reached a host
			}
			chain = append(chain, fb.Name())
			p, ok := fb.NextHop(from.MAC(), dst.MAC(), now)
			if !ok {
				t.Fatalf("walk %s->%s dead-ends at %s", from.Name(), dst.Name(), fb.Name())
			}
			cur = p.Peer().Node()
		}
		t.Fatalf("walk %s->%s did not terminate", from.Name(), dst.Name())
		return nil
	}
	toB := walk(a, b)
	toA := walk(b, a)
	if len(toB) != len(toA) {
		t.Fatalf("paths differ in length: %v vs %v", toB, toA)
	}
	for i := range toB {
		if toB[i] != toA[len(toA)-1-i] {
			t.Fatalf("path %v is not the reverse of %v", toB, toA)
		}
	}
}

// TestFlowPathRepairsWarmConversation wipes a bridge mid-path (total
// state loss, link bounce) and probes again WITHOUT flushing ARP caches:
// the pair miss at the restarted bridge must buffer, flood a pair
// PathRequest answered from the destination's durable edge entry, and
// unblock the conversation — Flow-Path's §2.1.4 analog.
func TestFlowPathRepairsWarmConversation(t *testing.T) {
	built := topo.Ring(topo.DefaultOptions(ProtoFlowPath, 2), 5)
	if got := pingOK(t, built, "H1", "H3", 2, 10*time.Millisecond); got != 2 {
		t.Fatalf("establishment failed")
	}

	// Restart every bridge holding pair state except the endpoints' edge
	// bridges, so the old path is guaranteed gone.
	a, b := built.Host("H1").MAC(), built.Host("H3").MAC()
	now := built.Now()
	restarted := 0
	built.Engine.At(built.Now(), func() {
		for _, br := range built.Bridges {
			fb := br.(*Bridge)
			if br.Name() == "S1" || br.Name() == "S3" {
				continue
			}
			if _, ok := fb.NextHop(a, b, now); ok {
				fb.Restart()
				restarted++
			}
		}
	})
	built.RunFor(50 * time.Millisecond)
	if restarted == 0 {
		t.Fatal("no mid-path bridge found to restart")
	}

	// Warm probes: spacing wider than the lock window so repair guards
	// can expire between probes (same reasoning as the scenario engine's
	// warm wave).
	if got := pingOK(t, built, "H1", "H3", 4, 250*time.Millisecond); got < 1 {
		t.Fatalf("warm conversation stayed blocked after restart (answered %d)", got)
	}

	var repairs uint64
	for _, br := range built.Bridges {
		repairs += br.(*Bridge).Stats().RepairsStarted
	}
	if repairs == 0 {
		t.Fatal("conversation recovered without any pair repair — test is not exercising the machinery")
	}
}

// TestFlowPathRestartReleasesBufferedRepairFrames is core's
// TestRestartReleasesBufferedRepairFrames for the pair-keyed queue: a
// frame parked awaiting a pair repair is released when the bridge crashes
// mid-repair, so a drained network holds no frames. Both bridges of the
// line H1—S1—S2—H2 are blanked first, so nobody can answer the
// PathRequest and the repair is still pending when S1 goes down again.
func TestFlowPathRestartReleasesBufferedRepairFrames(t *testing.T) {
	net := topo.Line(topo.DefaultOptions(ProtoFlowPath, 1), 2)
	base := net.LiveFrames()
	if pingOK(t, net, "H1", "H2", 1, 10*time.Millisecond) != 1 {
		t.Fatal("warmup ping failed")
	}
	b1, b2 := net.Bridge("S1").(*Bridge), net.Bridge("S2").(*Bridge)
	h1, h2 := net.Host("H1"), net.Host("H2")

	net.Engine.At(net.Now(), func() {
		b1.Restart()
		b2.Restart()
	})
	sock := h1.UDP(5000, nil)
	net.Engine.At(net.Now()+time.Millisecond, func() {
		sock.SendTo(h2.IP(), 5000, make([]byte, 100))
	})
	net.Engine.At(net.Now()+2*time.Millisecond, func() {
		if n := b1.PendingRepairs(); n != 1 {
			t.Errorf("%d repairs pending at the second restart, want 1", n)
		}
		b1.Restart()
		// The restart itself, not the repair timeout half a second later,
		// is what must let go of the frame.
		if s := b1.Stats(); b1.PendingRepairs() != 0 || s.RepairsStarted != 1 || s.RepairDropped != 1 {
			t.Errorf("right after restart: %d pending, started/dropped = %d/%d; want 0, 1/1",
				b1.PendingRepairs(), s.RepairsStarted, s.RepairDropped)
		}
	})
	net.Run()
	if got := net.LiveFrames(); got != base {
		t.Fatalf("live frames %d after drain, want baseline %d", got, base)
	}
	if s := b1.Stats(); s.RepairDropped != 1 || s.RepairReleased != 0 {
		t.Fatalf("after drain: dropped/released = %d/%d, want 1/0", s.RepairDropped, s.RepairReleased)
	}
}
