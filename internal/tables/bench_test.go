package tables

import (
	"fmt"
	"testing"
	"time"
)

// BenchmarkTableFind is the forwarding path's probe by table occupancy. The
// benchmark's own core.micro.hop_ns runs on a line whose tables hold two
// MACs, where any probe is one compare; a fabric bridge holds an entry per
// host a discovery flood ever reached it from — 16 on the k=4 fat tree of
// pump_forward, hundreds to thousands on the unicast fabrics — and that is
// where the probe array is paid for. Misses matter as much as hits: every
// unknown-destination frame and every first flood copy is one.
func BenchmarkTableFind(b *testing.B) {
	for _, n := range []int{2, 16, 256, 4096} {
		b.Run(fmt.Sprintf("uint64/n=%d", n), func(b *testing.B) { benchFind(b, n, macKey) })
		b.Run(fmt.Sprintf("pair/n=%d", n), func(b *testing.B) { benchFind(b, n, pairOf) })
	}
}

func benchFind[K comparable](b *testing.B, n int, key func(int) K) {
	ports := testPorts(1)
	tb := New[K](time.Millisecond, time.Hour, Config{}, nil, hashOf[K]())
	keys := make([]K, 2*n) // the first n resident, the rest absent
	for i := range keys {
		keys[i] = key(i)
	}
	for _, k := range keys[:n] {
		tb.Learn(k, ports[0], 0)
	}
	for _, c := range []struct {
		name string
		keys []K
		want bool
	}{{"hit", keys[:n], true}, {"miss", keys[n:], false}} {
		b.Run(c.name, func(b *testing.B) {
			i := 0
			for b.Loop() {
				if _, _, ok := tb.Find(c.keys[i], time.Microsecond); ok != c.want {
					b.Fatalf("Find(%v) = %v", c.keys[i], ok)
				}
				if i++; i == n {
					i = 0
				}
			}
		})
	}
}

// BenchmarkTableChurn is the write path at the bound, discovery_churn's
// regime: every Lock admits a never-seen key into a full table, so each
// op is one miss probe, one eviction (backward shift of the victim's run)
// and one insert.
func BenchmarkTableChurn(b *testing.B) {
	b.Run("uint64", func(b *testing.B) { benchChurn(b, macKey) })
	b.Run("pair", func(b *testing.B) { benchChurn(b, pairOf) })
}

func benchChurn[K comparable](b *testing.B, key func(int) K) {
	const capacity = 1024
	ports := testPorts(1)
	tb := New[K](time.Microsecond, time.Hour, Config{Capacity: capacity, Policy: PolicyLRU}, nil, hashOf[K]())
	now, i := time.Duration(0), 0
	lock := func() {
		now += time.Millisecond // past the last key's race window: every victim is evictable
		tb.Lock(key(i), ports[0], now)
		i++
	}
	for range capacity {
		lock()
	}
	b.ReportAllocs()
	for b.Loop() {
		lock()
	}
	if tb.Entries() != capacity {
		b.Fatalf("table holds %d entries, bound %d", tb.Entries(), capacity)
	}
}
