package topo_test

// The dataplane benchmarks: an established line of bridges forwarding
// one pre-serialized frame per iteration, and the locking table under a
// 10k-host working set. They share establishedLine with the
// zero-allocation gates in zeroalloc_test.go and report the same
// property through -benchmem.

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/layers"
	"repro/internal/topo"
)

// establishedLine builds a line of n ARP-Path bridges with hosts H1/H2 at
// the ends, establishes the H1↔H2 path with one ping, and returns the
// built network plus a pre-serialized unicast data frame H1→H2 (unknown
// IP protocol, so H2 counts and drops it without replying).
func establishedLine(b testing.TB, n int) (*topo.Built, []byte) {
	b.Helper()
	return establishedLineSharded(b, topo.ARPPath, n, 1)
}

// establishedLineSharded is establishedLine with bridges of any registered
// protocol on a partitioned fabric: the line is split across the given
// number of engine shards, so steady-state forwarding exercises the
// parallel coordinator's windows and the cross-shard exchange on every
// frame.
func establishedLineSharded(b testing.TB, proto topo.Protocol, n, shards int) (*topo.Built, []byte) {
	b.Helper()
	opts := topo.DefaultOptions(proto, 1)
	opts.Shards = shards
	built := topo.Line(opts, n)
	h1, h2 := built.Host("H1"), built.Host("H2")
	ok := false
	built.Engine.At(built.Now(), func() {
		h1.Ping(h2.IP(), 0, time.Second, func(host.PingResult) { ok = true })
	})
	built.RunFor(2 * time.Second)
	if !ok {
		b.Fatal("path establishment failed")
	}
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: h2.MAC(), Src: h1.MAC(), EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{TTL: 64, Protocol: 253, Src: h1.IP(), Dst: h2.IP()},
		layers.Payload(make([]byte, 64)),
	)
	if err != nil {
		b.Fatal(err)
	}
	return built, frame
}

// benchForward drives one pre-serialized frame per iteration through an
// established line of n bridges and gates the steady-state allocation
// count. This is the zero-allocation dataplane contract: once paths are
// locked, forwarding a unicast frame across the fabric must not allocate.
func benchForward(b *testing.B, n int) {
	built, frame := establishedLine(b, n)
	src := built.Host("H1").Port()
	rx0 := built.Host("H2").Stats().FramesRx
	// Warm the pools (frame buffers, in-flight events) before measuring.
	for i := 0; i < 100; i++ {
		src.Send(frame)
		built.Net.Network.Run()
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Send(frame)
		built.Net.Network.Run()
	}
	b.StopTimer()
	if got := built.Host("H2").Stats().FramesRx - rx0; got != uint64(b.N)+100 {
		b.Fatalf("delivered %d of %d frames", got, b.N+100)
	}
}

// BenchmarkForwardSingleHop measures one bridge forwarding an established
// unicast flow: H1 — S1 — H2. allocs/op must be 0 in steady state.
func BenchmarkForwardSingleHop(b *testing.B) { benchForward(b, 1) }

// BenchmarkForwardChain16 traverses 16 bridges per frame: the per-hop cost
// of the parse-once/copy-never dataplane. allocs/op must be 0.
func BenchmarkForwardChain16(b *testing.B) { benchForward(b, 16) }

// BenchmarkTableChurn10k hammers the locking table with a 10k-host working
// set: lock, confirm, look up, and refresh cycling through the population,
// with expiry pressure from advancing time. allocs/op must be 0 once the
// table has grown to its steady-state size.
func BenchmarkTableChurn10k(b *testing.B) {
	built, _ := establishedLine(b, 1)
	port := built.Host("H1").Port()
	tbl := core.NewLockTable(200*time.Millisecond, 120*time.Second)
	const hosts = 10_000
	macs := make([]layers.MAC, hosts)
	for i := range macs {
		macs[i] = layers.HostMAC(i + 1)
	}
	for i, m := range macs { // pre-grow to steady state
		tbl.Learn(m, port, time.Duration(i))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := macs[i%hosts]
		now := time.Duration(i) * time.Microsecond
		tbl.Lock(m, port, now)
		tbl.Learn(m, port, now)
		if _, ok := tbl.Get(m, now); !ok {
			b.Fatal("entry vanished")
		}
		tbl.Refresh(m, now)
	}
}

// BenchmarkEndToEndPingEstablished measures the steady-state forwarding
// cost of the simulator+protocol stack (engineering hygiene, not a paper
// figure): one ping across the Figure 2 fabric on an established path.
func BenchmarkEndToEndPingEstablished(b *testing.B) {
	n := topo.Figure2(topo.DefaultOptions(topo.ARPPath, 1), topo.ProfileUniform)
	a, hostB := n.Host("A"), n.Host("B")
	// Establish the path once.
	n.Engine.At(n.Now(), func() {
		a.Ping(hostB.IP(), 56, time.Second, func(host.PingResult) {})
	})
	n.RunFor(time.Second)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n.Engine.At(n.Now(), func() {
			a.Ping(hostB.IP(), 56, time.Second, func(host.PingResult) {})
		})
		n.RunFor(time.Millisecond)
	}
}

// BenchmarkBuild measures cold start: building and warming a fabric,
// with no traffic. Run with -benchmem; TestFabricBuildAllocations
// gates the RandomRegular case's allocations and bytes.
func BenchmarkBuild(b *testing.B) {
	opts := topo.DefaultOptions(topo.ARPPath, 1)
	for _, c := range []struct {
		name  string
		build func()
	}{
		{"RandomRegular256x3", func() { topo.RandomRegular(opts, 256, 3) }},
		{"FatTree4", func() { topo.FatTree(opts, 4) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.build()
			}
		})
	}
}
