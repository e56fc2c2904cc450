package topo_test

// The zero-allocation gate (DESIGN.md §3): once paths are established,
// forwarding a unicast frame across the fabric must not allocate — not
// in the engine (pooled events), not in the links (pooled frames and
// flights), not in the bridges (packed-key table ops on a pre-decoded
// view). The benchmarks report the same property; this test enforces it
// on every CI run without -bench.

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/flowpath"
	hostpkg "repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/learning"
	"repro/internal/netsim"
	"repro/internal/tables"
	"repro/internal/topo"
)

func TestSteadyStateForwardingDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	// The All-Path variants ride along on the long chain: Flow-Path's
	// pair-table hit and TCP-Path's dispatch in front of the ARP-Path
	// dataplane sit behind the same gate as the hop bench/perf measures.
	for _, tc := range []struct {
		name    string
		proto   topo.Protocol
		bridges int
	}{
		{"SingleHop", topo.ARPPath, 1},
		{"Chain16", topo.ARPPath, 16},
		{"Chain16FlowPath", flowpath.ProtoFlowPath, 16},
		{"Chain16TCPPath", flowpath.ProtoTCPPath, 16},
	} {
		t.Run(tc.name, func(t *testing.T) {
			built, frame := establishedLineSharded(t, tc.proto, tc.bridges, 1)
			src := built.Host("H1").Port()
			// Warm every pool: frame buffers, flights, engine events.
			for i := 0; i < 200; i++ {
				src.Send(frame)
				built.Net.Network.Run()
			}
			rx0 := built.Host("H2").Stats().FramesRx
			const runs = 500
			allocs := testing.AllocsPerRun(runs, func() {
				src.Send(frame)
				built.Net.Network.Run()
			})
			if allocs != 0 {
				t.Fatalf("steady-state forward allocates %.2f/op, want 0", allocs)
			}
			// AllocsPerRun executes runs+1 iterations.
			if got := built.Host("H2").Stats().FramesRx - rx0; got != runs+1 {
				t.Fatalf("delivered %d frames, want %d", got, runs+1)
			}
		})
	}
}

// TestCBRFlowDoesNotAllocate extends the gate to the traffic source the
// unicast benchmarks and the daemon's bursts use: once its path is
// established, a running app.StartFlow sends and delivers each datagram
// without allocating — its re-arm is a pooled, handle-free event.
func TestCBRFlowDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	built := topo.Line(topo.DefaultOptions(topo.ARPPath, 1), 4)
	src, dst := built.Host("H1"), built.Host("H2")
	sink := app.NewSink(dst, 7000)
	const interval = 10 * time.Microsecond
	built.Engine.At(built.Now(), func() {
		app.StartFlow(src, app.FlowConfig{
			DstIP: dst.IP(), DstPort: 7000, PayloadSize: 200, Interval: interval, Count: 1 << 30,
		}, nil)
	})
	built.RunFor(200 * interval) // resolve ARP, lock the path, warm every pool
	rx0 := sink.Count()
	const runs = 500
	if allocs := testing.AllocsPerRun(runs, func() { built.RunFor(interval) }); allocs != 0 {
		t.Fatalf("a running CBR flow allocates %.2f/datagram, want 0", allocs)
	}
	// AllocsPerRun executes runs+1 iterations, one datagram each.
	if got := sink.Count() - rx0; got != runs+1 {
		t.Fatalf("delivered %d datagrams, want %d", got, runs+1)
	}
}

// TestBoundedTableChurnDoesNotAllocate extends the gate to the bounded
// forwarding tables (DESIGN.md §12): steady-state churn — a fresh key
// into a full table, forcing an eviction and recycling a tracker node —
// must not allocate in any of the three tables, under either policy. The
// tracker's slice-arena free list and the map's delete-then-insert
// balance are what make a million-conversation run flat.
func TestBoundedTableChurnDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	net := netsim.NewNetwork(1)
	a, b := hostpkg.New(net, "a", 1), hostpkg.New(net, "b", 2)
	port := net.Connect(a, b, netsim.DefaultLinkConfig()).A()

	for _, policy := range []tables.Policy{tables.PolicyLRU, tables.PolicyClock} {
		bound := tables.Config{Capacity: 512, Policy: policy}
		t.Run("LockTable/"+policy.String(), func(t *testing.T) {
			tb := core.NewBoundedLockTable(time.Millisecond, time.Hour, bound)
			now, key := 10*time.Millisecond, uint64(1)<<32
			churn := func() {
				key++
				now += 2 * time.Millisecond
				tb.LearnKey(key, port, now)
			}
			for i := 0; i < 2048; i++ {
				churn() // fill past capacity, warm the arena
			}
			if allocs := testing.AllocsPerRun(2000, churn); allocs != 0 {
				t.Fatalf("bounded LockTable churn allocates %.2f/op, want 0", allocs)
			}
		})
		t.Run("PairTable/"+policy.String(), func(t *testing.T) {
			tb := flowpath.NewBoundedPairTable(time.Millisecond, time.Hour, bound, false)
			now, key := 10*time.Millisecond, uint64(1)<<32
			churn := func() {
				key++
				now += 2 * time.Millisecond
				tb.Learn(flowpath.PairKey{Hi: key, Lo: key ^ 0xFFFF}, port, now)
			}
			for i := 0; i < 2048; i++ {
				churn()
			}
			if allocs := testing.AllocsPerRun(2000, churn); allocs != 0 {
				t.Fatalf("bounded PairTable churn allocates %.2f/op, want 0", allocs)
			}
		})
		t.Run("LearningTable/"+policy.String(), func(t *testing.T) {
			tb := learning.NewBoundedTable(time.Hour, bound)
			now, key := 10*time.Millisecond, uint64(1)<<32
			churn := func() {
				key++
				now += 2 * time.Millisecond
				tb.LearnKey(key, port, now)
			}
			for i := 0; i < 2048; i++ {
				churn()
			}
			if allocs := testing.AllocsPerRun(2000, churn); allocs != 0 {
				t.Fatalf("bounded learning.Table churn allocates %.2f/op, want 0", allocs)
			}
		})
	}
}

// TestShardedSteadyStateCoordinationDoesNotAllocate extends the gate to
// the coordinator (DESIGN.md §8): once paths are established on a
// partitioned line, steady-state forwarding — lookahead windows run in
// shard order, cross-shard arrivals shipped straight into the destination
// engine — must not allocate.
func TestShardedSteadyStateCoordinationDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	built, frame := establishedLineSharded(t, topo.ARPPath, 8, 2)
	if k, ok := built.Net.Network.Sharded(); !ok || k != 2 {
		t.Fatalf("expected a 2-shard line, got %d shards", k)
	}
	src := built.Host("H1").Port()
	net := built.Net.Network
	// Warm every pool: frame buffers, flights, remote flights, engine
	// events, tap arenas.
	for i := 0; i < 200; i++ {
		src.Send(frame)
		net.Run()
	}
	rx0 := built.Host("H2").Stats().FramesRx
	w0 := net.CoordStats().Windows
	const runs = 300
	allocs := testing.AllocsPerRun(runs, func() {
		src.Send(frame)
		net.Run()
	})
	if allocs != 0 {
		t.Fatalf("sharded steady-state forward allocates %.2f/op, want 0", allocs)
	}
	if windows := net.CoordStats().Windows - w0; windows < 2*runs {
		// Each end-to-end frame traversal takes several lookahead windows
		// on a 2-shard line; a collapse here means the workload stopped
		// exercising the coordinator and the gate is vacuous.
		t.Fatalf("only %d windows over %d runs — workload no longer drives the coordinator", windows, runs)
	}
	// AllocsPerRun executes runs+1 iterations.
	if got := built.Host("H2").Stats().FramesRx - rx0; got != runs+1 {
		t.Fatalf("delivered %d frames, want %d", got, runs+1)
	}
}

// TestFabricBuildAllocations holds the per-hop layout in place (DESIGN.md
// §5, "What one hop touches"): a link is one allocation with its ports,
// identities and first flights, a bridge one with its chassis and table,
// node identities come from a slab. Building a 256-bridge degree-3 fabric
// took 21 558 allocations before that layout and 13 626–13 832 with it.
// Seeding every random stream on its first draw and serializing each
// bridge's start-up HELLO once (DESIGN.md §6) took it to 10 031–10 095
// allocations and 2.11–2.22 MB here, and up to 10 234 and 2.47 MB in
// BenchmarkBuild (the spread is the frame pool refilling after a GC).
// Building each host's maps, ICMP and TCP state on first use and each
// bridge's control-frame scratch once (DESIGN.md §5) took it to
// 6 963–6 971 allocations and 1.92–1.93 MB, up to 7 096 and 2.16 MB in
// BenchmarkBuild. An eager stream costs a 4.9 KB source per host or
// bridge, 1.25 MB for either set, so one coming back fails the bytes
// ceiling; eager host maps (six per host) or a change that splits a link
// or a bridge back into separate objects fails the allocation ceiling.
func TestFabricBuildAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the gate runs in the non-race job")
	}
	const ceiling, bytesCeiling = 7300, 2_300_000
	opts := topo.DefaultOptions(topo.ARPPath, 1)
	build := func() { topo.RandomRegular(opts, 256, 3) }
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	build() // warm-up: the frame pool and the runtime's own caches
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	const runs = 5
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&m1)
	if allocs := (m1.Mallocs - m0.Mallocs) / runs; allocs > ceiling {
		t.Fatalf("building RandomRegular(256, 3) allocates %d objects, want ≤ %d", allocs, ceiling)
	}
	if bytes := (m1.TotalAlloc - m0.TotalAlloc) / runs; bytes > bytesCeiling {
		t.Fatalf("building RandomRegular(256, 3) allocates %d bytes, want ≤ %d", bytes, bytesCeiling)
	}
}

// TestEstablishedPathStaysUp is the functional sibling of the allocation
// gate: the frames pumped above must actually arrive, and keep arriving
// when the steady state is perturbed by re-establishment traffic.
func TestEstablishedPathStaysUp(t *testing.T) {
	built, frame := establishedLine(t, 4)
	h2 := built.Host("H2")
	src := built.Host("H1").Port()
	for i := 0; i < 50; i++ {
		src.Send(frame)
		built.Net.Network.Run()
	}
	rx := h2.Stats().FramesRx
	if rx < 50 {
		t.Fatalf("FramesRx = %d, want ≥ 50", rx)
	}
	// A fresh ping (broadcast ARP + unicast echo) must coexist with the
	// pooled fast path.
	ok := false
	built.Engine.At(built.Now(), func() {
		built.Host("H1").Ping(h2.IP(), 0, time.Second, func(r hostpkg.PingResult) { ok = r.Err == nil })
	})
	built.RunFor(2 * time.Second)
	if !ok {
		t.Fatal("ping across warmed fabric failed")
	}
}
