package core

import (
	"testing"
	"time"

	hostpkg "repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/layers"
	"repro/internal/netsim"
)

// TestStaleARPSrcPortBlackholeRepairs is the deterministic regression for
// the liveness gap the scenario engine surfaced (ROADMAP open item,
// DESIGN.md §7 finding 2): a host with a warm ARP cache is silently
// blackholed after a later flood moves its locked position — the src-port
// discipline discards its unicasts (SrcPortDrop) and, before the fix,
// nothing triggered repair until the ARP cache expired.
//
// Topology (diamond with a slow and a fast branch, C attached to the far
// bridge):
//
//	A—S1—S2—S4—B      S1—S2, S2—S4: 50µs (slow branch)
//	   S1—S3—S4—C     S1—S3, S3—S4: 5µs  (fast branch)
//
// Sequence:
//  1. With the fast branch down, A resolves and pings B: every bridge
//     learns A and B along the slow branch.
//  2. The fast branch comes back; all race windows expire.
//  3. A resolves C. The ARP flood reaches S4 via the fast branch first, so
//     S4 re-locks A onto its S3-facing port, and C's unicast reply
//     confirms that binding (learned, long expiry).
//  4. After the race window closes, A — ARP cache for B still warm — pings
//     B again. The echo requests arrive at S4 on the S2-facing port while
//     A's entry points at S3: a non-guarded src-port violation on every
//     frame. Pre-fix this was a permanent blackhole; post-fix the bridge
//     buffers the frame and triggers repair toward the source, and the
//     pings must succeed.
func TestStaleARPSrcPortBlackholeRepairs(t *testing.T) {
	net := netsim.NewNetwork(11)
	cfg := netsim.DefaultLinkConfig()
	s1 := New(net, "S1", 1, DefaultConfig())
	s2 := New(net, "S2", 2, DefaultConfig())
	s3 := New(net, "S3", 3, DefaultConfig())
	s4 := New(net, "S4", 4, DefaultConfig())
	a := hostpkg.New(net, "A", 1)
	b := hostpkg.New(net, "B", 2)
	c := hostpkg.New(net, "C", 3)

	net.Connect(a, s1, cfg.WithDelay(time.Microsecond))
	slow1 := net.Connect(s1, s2, cfg.WithDelay(50*time.Microsecond))
	slow2 := net.Connect(s2, s4, cfg.WithDelay(50*time.Microsecond))
	fast1 := net.Connect(s1, s3, cfg.WithDelay(5*time.Microsecond))
	fast2 := net.Connect(s3, s4, cfg.WithDelay(5*time.Microsecond))
	net.Connect(s4, b, cfg.WithDelay(time.Microsecond))
	net.Connect(s4, c, cfg.WithDelay(time.Microsecond))
	_ = slow1
	_ = slow2

	for _, br := range []*Bridge{s1, s2, s3, s4} {
		br.Start()
	}
	net.RunFor(time.Millisecond)

	// Phase 1: fast branch dark; A's and B's positions lock along the slow
	// branch.
	fast1.SetUp(false)
	fast2.SetUp(false)
	ok1 := 0
	net.Engine.At(net.Now(), func() {
		a.Ping(b.IP(), 56, time.Second, func(r hostpkg.PingResult) {
			if r.Err == nil {
				ok1++
			}
		})
	})
	net.RunFor(50 * time.Millisecond)
	if ok1 != 1 {
		t.Fatalf("phase 1 ping failed (%d/1)", ok1)
	}

	// Phase 2: fast branch returns; let every lock and guard expire.
	fast1.SetUp(true)
	fast2.SetUp(true)
	net.RunFor(300 * time.Millisecond)

	// Phase 3: A resolves C. The flood wins the race into S4 over the fast
	// branch and C's reply confirms A's position there — on the "wrong"
	// port for the established A<->B path.
	ok3 := 0
	net.Engine.At(net.Now(), func() {
		a.Ping(c.IP(), 56, time.Second, func(r hostpkg.PingResult) {
			if r.Err == nil {
				ok3++
			}
		})
	})
	net.RunFor(50 * time.Millisecond)
	if ok3 != 1 {
		t.Fatalf("phase 3 ping to C failed (%d/1)", ok3)
	}
	if e, found := s4.EntryFor(a.MAC()); !found || e.Port.Link() != fast2 {
		t.Fatalf("precondition lost: S4's entry for A should point at the fast branch (found=%v)", found)
	}

	// Phase 4: race window over, ARP cache still warm — pre-fix, these
	// frames die at S4 forever.
	net.RunFor(300 * time.Millisecond)
	ok4 := 0
	net.Engine.At(net.Now(), func() {
		a.PingSeries(b.IP(), 3, 56, 20*time.Millisecond, time.Second, func(rs []hostpkg.PingResult) {
			for _, r := range rs {
				if r.Err == nil {
					ok4++
				}
			}
		})
	})
	net.RunFor(2 * time.Second)
	net.Run()

	st := s4.Stats()
	if st.SrcPortDrop == 0 || st.SrcViolRepairs == 0 {
		t.Fatalf("expected src-port violations to be observed and routed into repair at S4, got %+v", st)
	}
	if ok4 != 3 {
		t.Fatalf("warm-cache pings blackholed: %d/3 answered (S4 stats %+v)", ok4, st)
	}
	if live := net.LiveFrames(); live != 0 {
		t.Fatalf("%d frames still live after drain", live)
	}
}

// TestRediscoveryStallsLiveFlow pins ROADMAP item 17(b) as it stands: a
// source's next discovery stalls its own live flow for a lock window.
//
//	A—SA—S1—SB—B      SA—S1: 100 Mb/s, the stream's bottleneck
//	   SA—S2—S1       S2—C
//
// A streams 4 MiB to B along A—SA—S1—SB. 20 ms in, A resolves C. Its
// broadcast queues behind stream data on SA→S1, so the copy through S2
// reaches S1 first and, A's race window being long over, re-locks A onto
// S1's S2 port. C answers through S2—SA, so S1 never sees the lock
// confirmed, and A's data, still arriving on the SA port, is dropped as a
// guarded source-port violation until the lock lapses. The control run
// without the resolve streams with no drops.
//
// This records present behaviour. Item 17(b)'s fix inverts the first
// three assertions: the gap stays under a lock window, S1 drops nothing
// or repairs what it drops.
func TestRediscoveryStallsLiveFlow(t *testing.T) {
	run := func(resolve bool) (gap, gapAt, finished time.Duration, st Stats) {
		net := netsim.NewNetwork(1)
		cfg := netsim.DefaultLinkConfig()
		sa := New(net, "SA", 1, DefaultConfig())
		s1 := New(net, "S1", 2, DefaultConfig())
		s2 := New(net, "S2", 3, DefaultConfig())
		sb := New(net, "SB", 4, DefaultConfig())
		a := hostpkg.New(net, "A", 1)
		b := hostpkg.New(net, "B", 2)
		c := hostpkg.New(net, "C", 3)
		net.Connect(a, sa, cfg.WithDelay(time.Microsecond))
		net.Connect(sa, s1, netsim.LinkConfig{Rate: 100_000_000, Delay: time.Microsecond, Queue: cfg.Queue})
		net.Connect(sa, s2, cfg)
		net.Connect(s2, s1, cfg)
		net.Connect(s1, sb, cfg)
		net.Connect(sb, b, cfg.WithDelay(time.Microsecond))
		net.Connect(c, s2, cfg.WithDelay(time.Microsecond))
		for _, br := range []*Bridge{sa, s1, s2, sb} {
			br.Start()
		}
		net.RunFor(time.Millisecond)

		start := net.Now()
		last := start
		net.Tap(func(ev netsim.TapEvent) {
			var eth layers.Ethernet
			var ip layers.IPv4
			var seg layers.TCPLite
			if ev.Kind != netsim.TapDeliver || ev.To.Node() != b || eth.DecodeFromBytes(ev.Frame) != nil ||
				ip.DecodeFromBytes(eth.Payload()) != nil || ip.Protocol != layers.IPProtoTCPLite ||
				seg.DecodeFromBytes(ip.Payload()) != nil || len(seg.Payload()) == 0 {
				return
			}
			if ev.At-last > gap {
				gap, gapAt = ev.At-last, last-start
			}
			last = ev.At
		})
		var rep *app.StreamReport
		net.Engine.At(start, func() {
			app.StartStream(a, b, app.StreamConfig{Port: 80, Size: 4 << 20}, func(r *app.StreamReport) { rep = r })
		})
		if resolve {
			net.Engine.At(start+20*time.Millisecond, func() { a.Resolve(c.IP(), func(layers.MAC, error) {}) })
		}
		net.RunFor(10 * time.Second)
		if rep == nil || !rep.Complete {
			t.Fatalf("resolve=%v: the stream did not complete", resolve)
		}
		return gap, gapAt, rep.Finished - start, s1.Stats()
	}

	gap, gapAt, finished, st := run(true)
	t.Logf("with the resolve: longest gap %v from %v into the stream; S1 SrcPortDrop %d, SrcViolRepairs %d; finished at %v",
		gap, gapAt, st.SrcPortDrop, st.SrcViolRepairs, finished)
	if gap <= DefaultLockTimeout || st.SrcPortDrop == 0 || st.SrcViolRepairs != 0 {
		t.Errorf("the re-discovery stall moved: gap %v (lock window %v), SrcPortDrop %d, SrcViolRepairs %d",
			gap, DefaultLockTimeout, st.SrcPortDrop, st.SrcViolRepairs)
	}
	gap, _, finished, st = run(false)
	t.Logf("without it: longest gap %v; S1 SrcPortDrop %d; finished at %v", gap, st.SrcPortDrop, finished)
	if st.SrcPortDrop != 0 {
		t.Errorf("the control run dropped %d frames at S1", st.SrcPortDrop)
	}
}
