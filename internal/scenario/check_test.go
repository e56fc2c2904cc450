package scenario

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flowpath"
	"repro/internal/host"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// The checker reaches bridges by duck-typing, so which methods a variant
// has — including the ones it gains by promotion from core.Discovery —
// decides what is walked as forwarding state. Every variant answers the
// walk primitive; the ones that forward on the per-source table (ARP-Path,
// and TCP-Path through it) are MAC-walked.
var (
	_ nextHopper = (*core.Bridge)(nil)
	_ nextHopper = (*flowpath.Bridge)(nil)
	_ nextHopper = (*flowpath.TCPPath)(nil)
	_ coreTabler = (*core.Bridge)(nil)
	_ coreTabler = (*flowpath.TCPPath)(nil)
)

// TestFlowPathHostTableIsNotWalkedAsForwardingState guards the one trap in
// sharing the discovery layer: Flow-Path's per-source table holds
// transient race locks and edge bindings, not paths, so *flowpath.Bridge
// must never satisfy coreTabler (Table + EntryFor) — the shared layer
// exposes that table as Hosts() only.
func TestFlowPathHostTableIsNotWalkedAsForwardingState(t *testing.T) {
	var fb any = (*flowpath.Bridge)(nil)
	if _, ok := fb.(coreTabler); ok {
		t.Fatal("*flowpath.Bridge satisfies coreTabler: the checker would walk its race locks as MAC forwarding entries")
	}
}

// ringPort returns the port of bridge on the named ring link.
func ringPort(t *testing.T, built *topo.Built, linkName, bridge string) *netsim.Port {
	t.Helper()
	l := built.Link(linkName)
	for _, p := range l.Ports() {
		if p.Node().Name() == bridge {
			return p
		}
	}
	t.Fatalf("link %s has no port on %s", linkName, bridge)
	return nil
}

// corruptRing rewrites the four ring bridges' tables into a sustained
// forwarding cycle — the corruption ARP-Path's locking discipline exists
// to make impossible. Entries for H3 (the destination) point forward
// around the ring (S1→S2→S3→S4→S1) and entries for H1 (the source) point
// backward, so a looping frame always arrives on its bound source port
// and the src-port discipline cannot cut the loop. This is the PR's
// deliberate-bug regression: the invariant library must catch it.
func corruptRing(t *testing.T, built *topo.Built) {
	t.Helper()
	dst := built.Host("H3").MAC()
	src := built.Host("H1").MAC()
	now := built.Now()
	for _, hop := range [][3]string{
		// bridge, dst's next-hop link, src's previous-hop link
		{"S1", "S1-S2", "S4-S1"},
		{"S2", "S2-S3", "S1-S2"},
		{"S3", "S3-S4", "S2-S3"},
		{"S4", "S4-S1", "S3-S4"},
	} {
		tbl := built.ARPPathBridge(hop[0]).Table()
		tbl.Learn(dst, ringPort(t, built, hop[1], hop[0]), now)
		tbl.Learn(src, ringPort(t, built, hop[2], hop[0]), now)
	}
}

// TestBrokenLockTableCaughtByLoopFreedom corrupts the live tables into a
// ring cycle and pushes one unicast datagram through it: the hop-trace
// loop-freedom checker (or the hop cap) must fire.
func TestBrokenLockTableCaughtByLoopFreedom(t *testing.T) {
	built := topo.Ring(topo.DefaultOptions(topo.ARPPath, 1), 4)
	chk := NewChecker(built)

	// Warm up: establish H1↔H3 paths.
	h1, h3 := built.Host("H1"), built.Host("H3")
	warmed := false
	built.Engine.At(built.Now(), func() {
		h1.Ping(h3.IP(), 56, time.Second, func(r host.PingResult) { warmed = r.Err == nil })
	})
	built.RunFor(1500 * time.Millisecond)
	if !warmed {
		t.Fatal("warmup ping failed")
	}
	chk.MarkStable(built.Now())
	if len(chk.Violations()) != 0 {
		t.Fatalf("clean warmup produced violations: %v", chk.Violations())
	}

	corruptRing(t, built)
	// Inject one H1→H3 data frame into the cycle at S1's ring port; the
	// corrupted tables then forward it around the ring forever.
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: h3.MAC(), Src: h1.MAC(), EtherType: layers.EtherTypeIPv4},
		layers.Payload(make([]byte, 64)),
	)
	if err != nil {
		t.Fatal(err)
	}
	built.Engine.At(built.Now(), func() {
		ringPort(t, built, "S1-S2", "S1").Send(frame)
	})
	built.RunFor(20 * time.Millisecond)

	if !chk.LoopSuspected() {
		t.Fatalf("corrupted ring produced no loop-class violation; got %v", chk.Violations())
	}
	found := false
	for _, v := range chk.Violations() {
		if v.Invariant == InvLoopFreedom || v.Invariant == InvHopCap {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected loop-freedom/hop-cap violation, got %v", chk.Violations())
	}
}

// TestBrokenLockTableCaughtByConsistency corrupts the tables the same way
// but checks the static table walker instead: the cycle must surface as a
// table-consistency violation without any traffic at all.
func TestBrokenLockTableCaughtByConsistency(t *testing.T) {
	built := topo.Ring(topo.DefaultOptions(topo.ARPPath, 1), 4)
	chk := NewChecker(built)
	built.RunFor(100 * time.Millisecond)

	chk.CheckTables()
	if len(chk.Violations()) != 0 {
		t.Fatalf("clean tables flagged: %v", chk.Violations())
	}

	corruptRing(t, built)
	chk.CheckTables()
	found := false
	for _, v := range chk.Violations() {
		if v.Invariant == InvTableConsistency {
			found = true
		}
	}
	if !found {
		t.Fatalf("corrupted tables not flagged, got %v", chk.Violations())
	}
}

// TestPoisonedProxyCaughtByConsistency warms a proxy-enabled ring (the
// caches snoop real bindings), checks the proxy invariant stays quiet,
// then deliberately poisons one bridge's cache with the wrong MAC: the
// proxy-consistency checker must flag it. This is the deliberate-bug
// regression for the proxy verification blind spot.
func TestPoisonedProxyCaughtByConsistency(t *testing.T) {
	opts := topo.DefaultOptions(topo.ARPPath, 1)
	opts.ARPPath().Proxy = true
	built := topo.Ring(opts, 4)
	chk := NewChecker(built)

	// Warm: H1 and H3 exchange traffic so edge bridges snoop both.
	done := false
	built.Engine.At(built.Now(), func() {
		built.Host("H1").Ping(built.Host("H3").IP(), 56, time.Second, func(r host.PingResult) { done = r.Err == nil })
	})
	built.RunFor(2 * time.Second)
	if !done {
		t.Fatal("warmup ping failed")
	}
	chk.CheckProxyCaches()
	if len(chk.Violations()) != 0 {
		t.Fatalf("clean proxy caches flagged: %v", chk.Violations())
	}

	// Poison: S1 now believes H3's IP belongs to H2's MAC.
	built.ARPPathBridge("S1").PoisonProxy(built.Host("H3").IP(), built.Host("H2").MAC())
	chk.CheckProxyCaches()
	found := false
	for _, v := range chk.Violations() {
		if v.Invariant == InvProxyConsistency {
			found = true
		}
	}
	if !found {
		t.Fatalf("poisoned proxy cache not flagged, got %v", chk.Violations())
	}
}

// TestCheckerFrameDrain verifies the drain check is quiet on a drained
// network and loud when a frame reference is deliberately leaked.
func TestCheckerFrameDrain(t *testing.T) {
	built := topo.Line(topo.DefaultOptions(topo.ARPPath, 1), 2)
	chk := NewChecker(built)
	done := false
	built.Engine.At(built.Now(), func() {
		built.Host("H1").Ping(built.Host("H2").IP(), 56, time.Second, func(r host.PingResult) { done = r.Err == nil })
	})
	built.Run()
	if !done {
		t.Fatal("warmup ping never resolved")
	}
	chk.CheckFrameDrain()
	if len(chk.Violations()) != 0 {
		t.Fatalf("drained network flagged: %v", chk.Violations())
	}

	// The balance is per-network now (a sweep runs scenarios
	// concurrently), so the leak must be charged to this network.
	leak := built.Network.NewFrame(make([]byte, 64)) // deliberately never released
	chk.CheckFrameDrain()
	found := false
	for _, v := range chk.Violations() {
		if v.Invariant == InvFrameDrain {
			found = true
		}
	}
	if !found {
		t.Fatal("leaked frame not flagged")
	}
	leak.Release() // restore the baseline for later tests
}
