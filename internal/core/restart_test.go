package core

import (
	"testing"
	"time"

	realhost "repro/internal/host"
	"repro/internal/netsim"
)

// buildRestartLine cables H1—B1—B2—H2 with ARP-Path bridges and runs the
// warm-up HELLO exchange.
func buildRestartLine(t *testing.T) (*netsim.Network, *Bridge, *Bridge, *realhost.Host, *realhost.Host) {
	t.Helper()
	net := netsim.NewNetwork(1)
	b1 := New(net, "B1", 1, DefaultConfig())
	b2 := New(net, "B2", 2, DefaultConfig())
	h1 := realhost.New(net, "H1", 1)
	h2 := realhost.New(net, "H2", 2)
	net.Connect(h1, b1, netsim.DefaultLinkConfig())
	net.Connect(b1, b2, netsim.DefaultLinkConfig())
	net.Connect(b2, h2, netsim.DefaultLinkConfig())
	b1.Start()
	b2.Start()
	net.RunFor(10 * time.Millisecond)
	return net, b1, b2, h1, h2
}

// TestRestartLosesAllTables power-cycles a bridge and checks the lock
// table empties, the chassis forgets its neighbours, and both rebuild
// from live traffic without host involvement.
func TestRestartLosesAllTables(t *testing.T) {
	net, b1, b2, h1, h2 := buildRestartLine(t)

	ok := false
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 56, time.Second, func(r realhost.PingResult) { ok = r.Err == nil })
	})
	net.RunFor(1500 * time.Millisecond)
	if !ok {
		t.Fatal("warmup ping failed")
	}
	if b1.Table().Len() == 0 {
		t.Fatal("warmup left no table entries")
	}
	trunk := b1.Port(1) // toward B2
	if !b1.IsTrunk(trunk) {
		t.Fatal("warmup did not classify the inter-bridge port as trunk")
	}

	net.Engine.At(net.Now(), func() { b1.Restart() })
	net.RunFor(time.Microsecond)
	if n := b1.Table().Len(); n != 0 {
		t.Fatalf("restart left %d table entries", n)
	}

	// The restart HELLO burst re-classifies ports on both sides.
	net.RunFor(10 * time.Millisecond)
	if !b1.IsTrunk(trunk) {
		t.Fatal("trunk classification did not rebuild after restart")
	}
	if !b2.IsTrunk(b2.Port(0)) {
		t.Fatal("peer lost its trunk classification")
	}

	// Traffic works again purely via relearning (ARP caches are warm, so
	// this exercises the unicast repair path through the blank bridge).
	ok = false
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 56, 2*time.Second, func(r realhost.PingResult) { ok = r.Err == nil })
	})
	net.RunFor(3 * time.Second)
	if !ok {
		t.Fatal("ping after restart failed")
	}
}

// TestRestartReleasesBufferedRepairFrames checks the refcount contract
// across a crash: frames parked in repair buffers are released by
// Restart, so a drained network returns to its frame baseline.
func TestRestartReleasesBufferedRepairFrames(t *testing.T) {
	base := netsim.LiveFrames()
	net, b1, _, h1, h2 := buildRestartLine(t)

	ok := false
	net.Engine.At(net.Now(), func() {
		h1.Ping(h2.IP(), 56, time.Second, func(r realhost.PingResult) { ok = r.Err == nil })
	})
	net.RunFor(1500 * time.Millisecond)
	if !ok {
		t.Fatal("warmup ping failed")
	}

	// Force a repair with traffic in flight: blank B1's table, then let a
	// unicast miss buffer frames, and restart again mid-repair.
	net.Engine.At(net.Now(), func() {
		b1.Restart()
	})
	sock := h1.UDP(5000, nil)
	net.Engine.At(net.Now()+time.Millisecond, func() {
		sock.SendTo(h2.IP(), 5000, make([]byte, 100))
	})
	net.Engine.At(net.Now()+2*time.Millisecond, func() {
		if b1.PendingRepairs() > 0 {
			// A repair is pending with buffered frames; crash now.
			b1.Restart()
		}
	})
	net.Run()
	if got := netsim.LiveFrames(); got != base {
		t.Fatalf("live frames %d after drain, want baseline %d", got, base)
	}
	if n := b1.PendingRepairs(); n != 0 {
		t.Fatalf("%d repairs survived restart", n)
	}
}

// TestLockTableReset checks Reset drops entries, port state and residency.
func TestLockTableReset(t *testing.T) {
	net := netsim.NewNetwork(1)
	a, b := realhost.New(net, "A", 1), realhost.New(net, "B", 2)
	l := net.Connect(a, b, netsim.DefaultLinkConfig())

	tbl := NewLockTable(time.Second, time.Minute)
	tbl.Lock(a.MAC(), l.A(), 0)
	tbl.Learn(b.MAC(), l.B(), 0)
	if tbl.Len() != 2 {
		t.Fatalf("Len=%d, want 2", tbl.Len())
	}
	tbl.Reset()
	if tbl.Len() != 0 {
		t.Fatalf("Len=%d after Reset", tbl.Len())
	}
	if _, ok := tbl.Get(a.MAC(), 0); ok {
		t.Fatal("entry survived Reset")
	}
	// The table is fully usable after Reset (fresh generations).
	tbl.Learn(a.MAC(), l.A(), 0)
	if e, ok := tbl.Get(a.MAC(), 0); !ok || e.Port != l.A() {
		t.Fatal("table unusable after Reset")
	}
}
