package core

import (
	"testing"
	"time"

	hostpkg "repro/internal/host"
	"repro/internal/layers"
	"repro/internal/netsim"
)

// twoPorts returns two distinct live ports for table tests.
func twoPorts() (*netsim.Port, *netsim.Port) {
	net := netsim.NewNetwork(1)
	a, b := hostpkg.New(net, "a", 1), hostpkg.New(net, "b", 2)
	c := hostpkg.New(net, "c", 3)
	l1 := net.Connect(a, b, netsim.DefaultLinkConfig())
	l2 := net.Connect(a, c, netsim.DefaultLinkConfig())
	return l1.A(), l2.A()
}

// TestGuardOnExpiredEntry: Guard must not resurrect an entry whose
// lifetime already ran out — the expired entry is evicted instead, and a
// later Get confirms it is gone.
func TestGuardOnExpiredEntry(t *testing.T) {
	p, _ := twoPorts()
	tb := NewLockTable(100*time.Millisecond, time.Second)
	m := layers.HostMAC(1)

	tb.Learn(m, p, 0) // expires at 1s
	tb.Guard(m, 1100*time.Millisecond)
	if _, ok := tb.Get(m, 1100*time.Millisecond); ok {
		t.Fatal("guard resurrected an expired entry")
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after guarding an expired entry, want 0", tb.Len())
	}

	// Same for a lock: once it has expired, Guard is a no-op.
	tb.LockKey(m.Uint64(), p, 2*time.Second) // expires at 2.1s
	tb.Guard(m, 3*time.Second)
	if _, ok := tb.GetKey(m.Uint64(), 3*time.Second); ok {
		t.Fatal("Guard resurrected an expired lock")
	}
}

// TestLearnOnDifferentPortMidWindow: a Learn that moves the binding to
// another port while the race window is still open must reset the guard
// (the window belonged to the old port's race) — otherwise the moved
// entry would filter floods with a window it never won.
func TestLearnOnDifferentPortMidWindow(t *testing.T) {
	p1, p2 := twoPorts()
	tb := NewLockTable(100*time.Millisecond, time.Second)
	m := layers.HostMAC(1)

	tb.Lock(m, p1, 0) // window open until 100ms
	tb.Learn(m, p2, 50*time.Millisecond)
	e, ok := tb.Get(m, 60*time.Millisecond)
	if !ok {
		t.Fatal("entry lost")
	}
	if e.Port != p2 || e.State != StateLearned {
		t.Fatalf("entry = %+v, want learned on p2", e)
	}
	if e.Guarded(60 * time.Millisecond) {
		t.Fatal("race window survived a port move")
	}

	// Learning on the SAME port mid-window preserves the window.
	tb.Lock(m, p1, time.Second)
	tb.Learn(m, p1, 1050*time.Millisecond)
	e, _ = tb.Get(m, 1060*time.Millisecond)
	if !e.Guarded(1060 * time.Millisecond) {
		t.Fatal("same-port confirm dropped the race window")
	}
	if e.Guarded(1101 * time.Millisecond) {
		t.Fatal("window did not close at the original deadline")
	}
}

// TestSnapshotExcludesExpiredUnswept: entries past their deadline stay
// resident until touched (lazy expiry), but Snapshot must not report
// them; flush-killed corpses are equally invisible.
func TestSnapshotExcludesExpiredUnswept(t *testing.T) {
	p1, p2 := twoPorts()
	tb := NewLockTable(100*time.Millisecond, time.Second)
	live, stale, flushed := layers.HostMAC(1), layers.HostMAC(2), layers.HostMAC(3)

	tb.Learn(live, p1, 500*time.Millisecond) // expires 1.5s
	tb.Lock(stale, p1, 0)                    // expires 100ms, never touched again
	tb.Learn(flushed, p2, 500*time.Millisecond)
	tb.FlushPort(p2)

	snap := tb.Snapshot(time.Second)
	if len(snap) != 1 {
		t.Fatalf("snapshot has %d entries, want 1: %v", len(snap), snap)
	}
	if _, ok := snap[live]; !ok {
		t.Fatal("live entry missing from snapshot")
	}
	if _, ok := snap[stale]; ok {
		t.Fatal("expired-but-unswept entry leaked into snapshot")
	}
	if _, ok := snap[flushed]; ok {
		t.Fatal("flushed entry leaked into snapshot")
	}
}

// TestFlushPortIsGenerationBased: FlushPort must kill every binding on
// the port in O(1), report the count, leave other ports untouched, and
// keep the map consistent when corpses are overwritten later.
func TestFlushPortIsGenerationBased(t *testing.T) {
	p1, p2 := twoPorts()
	tb := NewLockTable(100*time.Millisecond, time.Minute)
	for i := 1; i <= 10; i++ {
		tb.Learn(layers.HostMAC(i), p1, 0)
	}
	tb.Learn(layers.HostMAC(11), p2, 0)
	if tb.Len() != 11 {
		t.Fatalf("Len = %d, want 11", tb.Len())
	}
	if purged := tb.FlushPort(p1); purged != 10 {
		t.Fatalf("FlushPort purged %d, want 10", purged)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d after flush, want 1", tb.Len())
	}
	if _, ok := tb.Get(layers.HostMAC(3), time.Millisecond); ok {
		t.Fatal("flushed entry still visible")
	}
	if _, ok := tb.Get(layers.HostMAC(11), time.Millisecond); !ok {
		t.Fatal("entry on the surviving port was lost")
	}
	// Re-learning a flushed MAC on the same port works (new generation).
	tb.Learn(layers.HostMAC(3), p1, time.Millisecond)
	if e, ok := tb.Get(layers.HostMAC(3), 2*time.Millisecond); !ok || e.Port != p1 {
		t.Fatal("re-learn after flush failed")
	}
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	// A second flush only counts the re-learned entry.
	if purged := tb.FlushPort(p1); purged != 1 {
		t.Fatalf("second FlushPort purged %d, want 1", purged)
	}
	// FlushExpired reclaims all corpses left behind by both flushes.
	tb.FlushExpired(2 * time.Millisecond)
	if got := len(tb.Snapshot(2 * time.Millisecond)); got != 1 {
		t.Fatalf("after sweep: %d live entries, want 1", got)
	}
}

// TestRefreshExtendsByState: refresh keeps a locked entry on the short
// clock and a learned entry on the long one, and drops expired entries.
func TestRefreshExtendsByState(t *testing.T) {
	p, _ := twoPorts()
	tb := NewLockTable(100*time.Millisecond, time.Second)
	m := layers.HostMAC(1)

	tb.Lock(m, p, 0)
	tb.Refresh(m, 50*time.Millisecond) // locked: now +100ms = 150ms
	if _, ok := tb.Get(m, 140*time.Millisecond); !ok {
		t.Fatal("refresh did not extend the lock window lifetime")
	}
	if _, ok := tb.Get(m, 151*time.Millisecond); ok {
		t.Fatal("locked refresh extended past the lock timeout")
	}

	tb.Learn(m, p, time.Second)
	tb.Refresh(m, 1500*time.Millisecond) // learned: now +1s
	if _, ok := tb.Get(m, 2400*time.Millisecond); !ok {
		t.Fatal("refresh did not extend the learned lifetime")
	}
	// Refreshing an expired entry is a no-op eviction.
	tb.Refresh(m, 10*time.Second)
	if tb.Len() != 0 {
		t.Fatalf("Len = %d, want 0", tb.Len())
	}
}
