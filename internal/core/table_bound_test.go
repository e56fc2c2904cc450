package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	hostpkg "repro/internal/host"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// boundPorts returns n distinct live ports for bounded-table tests.
func boundPorts(n int) []*netsim.Port {
	net := netsim.NewNetwork(1)
	hub := hostpkg.New(net, "hub", 1)
	ports := make([]*netsim.Port, n)
	for i := range ports {
		peer := hostpkg.New(net, fmt.Sprintf("p%d", i+1), i+2)
		ports[i] = net.Connect(hub, peer, netsim.DefaultLinkConfig()).A()
	}
	return ports
}

// TestEvictionNeverTouchesGuardedEntries is the race-window property
// seen through the bridge's own table — packed-MAC keys, the junk-MAC
// predicate armed, the *Key spellings the forwarding path calls: under
// randomized churn far above capacity, neither LRU nor clock may ever
// evict an entry whose §2.1.1 race window is still open. (The shared body
// is property-tested per key shape in internal/tables.)
func TestEvictionNeverTouchesGuardedEntries(t *testing.T) {
	const (
		lockTimeout = 100 * time.Millisecond
		capacity    = 32
		ops         = 20_000
	)
	for _, policy := range []tables.Policy{tables.PolicyLRU, tables.PolicyClock} {
		t.Run(policy.String(), func(t *testing.T) {
			ports := boundPorts(2)
			tb := NewBoundedLockTable(lockTimeout, time.Hour,
				tables.Config{Capacity: capacity, Policy: policy})
			rng := rand.New(rand.NewSource(int64(policy) + 42))

			// Shadow of every key's latest window-opening operation.
			lockedAt := map[uint64]time.Duration{}
			now := time.Duration(0)
			for i := 0; i < ops; i++ {
				now += time.Duration(rng.Intn(2000)) * time.Microsecond
				key := layers.HostMAC(rng.Intn(4096) + 1).Uint64()
				p := ports[rng.Intn(2)]
				switch rng.Intn(4) {
				case 0, 1: // lock opens a race window
					tb.LockKey(key, p, now)
					lockedAt[key] = now
				case 2:
					tb.LearnKey(key, p, now)
					// A learn on another port closes the window (the old
					// port's race is void), so the shadow must forget the
					// deadline — it only ever asserts on keys whose window
					// is provably still open, i.e. locked and untouched
					// since.
					delete(lockedAt, key)
				case 3:
					tb.GetKey(key, now)
				}
				if i%64 == 0 {
					live := tb.Table.Snapshot(now)
					for k, at := range lockedAt {
						if now-at >= lockTimeout {
							delete(lockedAt, k) // window closed
							continue
						}
						if _, ok := live[k]; !ok {
							t.Fatalf("op %d (%s): key %x evicted inside its race window (locked at %v, now %v)",
								i, policy, k, at, now)
						}
					}
				}
			}
			if tb.Evictions() == 0 {
				t.Fatalf("churn produced no evictions; the property was not exercised (resident %d, cap %d)",
					tb.Len(), capacity)
			}
		})
	}
}

// BenchmarkTableChurn measures the bounded-table steady state the
// eviction-pressure experiment lives in: every op inserts a fresh key
// into a full table, forcing a policy eviction plus tracker recycling.
// The interesting number is allocs/op: it must be zero (the gate in
// ../topo/zeroalloc_test.go enforces this without -bench).
func BenchmarkTableChurn(b *testing.B) {
	for _, policy := range []tables.Policy{tables.PolicyLRU, tables.PolicyClock} {
		b.Run(policy.String(), func(b *testing.B) {
			ports := boundPorts(1)
			tb := NewBoundedLockTable(time.Millisecond, time.Hour,
				tables.Config{Capacity: 1024, Policy: policy})
			now := 10 * time.Millisecond
			for i := 0; i < 4096; i++ { // fill past capacity, warm the arena
				tb.LearnKey(uint64(i)+1<<32, ports[0], now)
				now += 2 * time.Millisecond
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tb.LearnKey(uint64(i)+1<<40, ports[0], now)
				now += 2 * time.Millisecond
			}
		})
	}
}
