package topo

// Adversarial gate for the coordinator's barrier protocol (DESIGN.md §8):
// a ring whose trunks all sit at near-minimum lookahead (the narrowest
// legal windows), every host bursting at the same virtual instant so
// same-timestamp keys straddle shard boundaries in both directions, and
// driver code slicing time into sub-millisecond steps while root-engine
// fault events (trunk flaps at off-grid timestamps) land inside the
// bursts. Every shard count from 1 through one-shard-per-bridge must
// produce the byte-identical trace, with the window bounds, the
// cross-shard exchange and the tap merge all at maximum window frequency.

import (
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
)

// runBarrierStress returns the trace fingerprint, tap event count and
// answered-ping count of one stress run at the given shard count.
func runBarrierStress(t *testing.T, shards int) (uint64, uint64, int) {
	t.Helper()
	opts := DefaultOptions(ARPPath, 7)
	opts.Shards = shards
	// Near-minimum boundary lookahead: windows as narrow as the protocol
	// allows, so the coordinator dispatches orders of magnitude more
	// epochs than any realistic fabric would.
	opts.Link.Delay = 500 * time.Nanosecond
	built := Ring(opts, 8)
	fp := netsim.NewTapFingerprint()
	built.Network.Tap(fp.Observe)

	// Every host pings its ring neighbour and its antipode at the SAME
	// instant: ARP floods from all eight edges at once, with trunk frames
	// carrying identical timestamps into both neighbouring shards.
	const n = 8
	type pair struct{ src, dst int }
	var pairs []pair
	for i := 0; i < n; i++ {
		pairs = append(pairs, pair{i, (i + 1) % n}, pair{i, (i + n/2) % n})
	}
	answered := make([]int, len(pairs))
	hostOf := func(i int) *host.Host { return built.Host([]string{"H1", "H2", "H3", "H4", "H5", "H6", "H7", "H8"}[i]) }
	start := func() {
		for i, pr := range pairs {
			i := i
			a, b := hostOf(pr.src), hostOf(pr.dst)
			built.Engine.At(built.Now(), func() {
				a.PingSeries(b.IP(), 3, 56, time.Millisecond, time.Second, func(rs []host.PingResult) {
					for _, r := range rs {
						if r.Err == nil {
							answered[i]++
						}
					}
				})
			})
		}
	}

	// Two trunk flaps at off-grid timestamps (…+100ns) so the root
	// barriers land between shard events mid-burst, not on tidy
	// millisecond boundaries; the second burst re-races every path after
	// repair has rerouted around the dead trunks.
	base := built.Now()
	s12, s56 := built.Link("S1-S2"), built.Link("S5-S6")
	built.Engine.At(base+2*time.Millisecond+100*time.Nanosecond, func() { s12.SetUp(false) })
	built.Engine.At(base+3*time.Millisecond+700*time.Nanosecond, func() { s56.SetUp(false) })
	built.Engine.At(base+9*time.Millisecond+300*time.Nanosecond, func() { s12.SetUp(true) })
	built.Engine.At(base+11*time.Millisecond+900*time.Nanosecond, func() { s56.SetUp(true) })

	start()
	// Drive the virtual clock in sub-millisecond slices: every RunFor
	// boundary is a full coordinator drain-and-return, interleaving
	// bounded windows with the flap barriers above.
	for i := 0; i < 30; i++ {
		built.RunFor(500 * time.Microsecond)
	}
	start() // second same-instant burst on the repaired ring
	built.RunFor(20 * time.Millisecond)
	built.Run() // drain ping timeouts and stragglers

	if live := built.Network.LiveFrames(); live != 0 {
		t.Fatalf("shards=%d: %d frames still live after drain", shards, live)
	}
	if shards > 1 {
		cs := built.Network.CoordStats()
		if cs.Windows == 0 || cs.Exchanged == 0 {
			t.Fatalf("shards=%d: degenerate coordination counters %+v", shards, cs)
		}
		if cs.Barriers != built.Network.Barriers() {
			t.Fatalf("shards=%d: CoordStats barriers %d != Barriers() %d", shards, cs.Barriers, built.Network.Barriers())
		}
	}
	total := 0
	for _, a := range answered {
		total += a
	}
	return fp.Sum(), fp.Events(), total
}

// TestBarrierStressMatchesSingleEngine asserts byte-identical traces from
// shards 1 through 8 on the stress workload above.
func TestBarrierStressMatchesSingleEngine(t *testing.T) {
	baseFP, baseEv, baseOK := runBarrierStress(t, 1)
	if baseOK == 0 || baseEv == 0 {
		t.Fatalf("degenerate base run: answered=%d events=%d", baseOK, baseEv)
	}
	for k := 2; k <= 8; k++ {
		fp, ev, ok := runBarrierStress(t, k)
		if fp != baseFP || ev != baseEv || ok != baseOK {
			t.Fatalf("shards=%d diverged: fp=%#x events=%d answered=%d, want fp=%#x events=%d answered=%d",
				k, fp, ev, ok, baseFP, baseEv, baseOK)
		}
	}
}

// TestShardWindowPanicReachesCaller: a panic inside a shard window reaches
// the goroutine that called Run, with its original value. The panicking
// event is local to the second shard, so the window is cut short after
// the first shard's share ran.
func TestShardWindowPanicReachesCaller(t *testing.T) {
	opts := DefaultOptions(ARPPath, 42)
	opts.Shards = 2
	built := Line(opts, 4)
	assign := PartitionAssign(built.Net, 2)
	var last Bridge
	for _, br := range built.Bridges {
		if assign[br.Name()] == 1 {
			last = br
		}
	}
	if last == nil {
		t.Fatalf("line did not split in two: %v", assign)
	}
	sentinel := new(int)
	barriers := built.Network.Barriers()
	built.Network.ScheduleScoped(built.Now()+time.Millisecond, last, []netsim.Node{last}, func() { panic(sentinel) })
	var got any
	func() {
		defer func() { got = recover() }()
		built.RunFor(10 * time.Millisecond)
	}()
	if got != any(sentinel) {
		t.Errorf("recovered %v, want the handler's own panic value", got)
	}
	if b := built.Network.Barriers(); b != barriers {
		t.Errorf("the panicking event ran as a barrier (%d → %d), not in a shard window", barriers, b)
	}
}
