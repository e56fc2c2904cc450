package topo

import (
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/netsim"
)

// runShardedGrid builds a 3x4 grid with corner hosts, pumps a few ARP-initiated
// ping exchanges across it, and returns the trace fingerprint plus the
// delivered echo count.
func runShardedGrid(t *testing.T, shards int) (uint64, uint64, int) {
	t.Helper()
	opts := DefaultOptions(ARPPath, 42)
	opts.Shards = shards
	built := Grid(opts, 3, 4)
	fp := netsim.NewTapFingerprint()
	built.Network.Tap(fp.Observe)

	answered := 0
	pairs := [][2]string{{"H1", "H4"}, {"H2", "H3"}, {"H3", "H1"}, {"H4", "H2"}}
	for i, pr := range pairs {
		a := built.Host(pr[0])
		b := built.Host(pr[1])
		built.Engine.At(built.Now()+time.Duration(i)*3*time.Millisecond, func() {
			a.PingSeries(b.IP(), 3, 56, 10*time.Millisecond, time.Second, func(rs []host.PingResult) {
				for _, r := range rs {
					if r.Err == nil {
						answered++
					}
				}
			})
		})
	}
	built.RunFor(3 * time.Second)
	built.Run()
	if live := built.Network.LiveFrames(); live != 0 {
		t.Fatalf("shards=%d: %d frames still live after drain", shards, live)
	}
	return fp.Sum(), fp.Events(), answered
}

// TestShardedRunMatchesSingleEngine is the tentpole determinism gate at
// the topology layer: the same seed must produce the identical tap trace,
// event for event and byte for byte, whether the fabric runs on one engine
// or is partitioned across parallel shards.
func TestShardedRunMatchesSingleEngine(t *testing.T) {
	baseFP, baseEv, baseOK := runShardedGrid(t, 1)
	if baseOK == 0 {
		t.Fatal("no pings answered on the unsharded run")
	}
	for _, k := range []int{2, 3, 4} {
		fp, ev, ok := runShardedGrid(t, k)
		if fp != baseFP || ev != baseEv || ok != baseOK {
			t.Fatalf("shards=%d diverged: fp=%#x events=%d answered=%d, want fp=%#x events=%d answered=%d",
				k, fp, ev, ok, baseFP, baseEv, baseOK)
		}
	}
}

// runShardedGridBurst is the adversarial variant of runShardedGrid for
// the batched hot path: every ordered host pair starts a ping series at
// the SAME virtual instant, so the run opens with a dense burst of events
// sharing one key window — ARP floods from all four corners at once, with
// boundary-link frames landing mid-batch in neighbouring shards.
func runShardedGridBurst(t *testing.T, shards int) (uint64, uint64, int) {
	t.Helper()
	opts := DefaultOptions(ARPPath, 99)
	opts.Shards = shards
	built := Grid(opts, 3, 4)
	fp := netsim.NewTapFingerprint()
	built.Network.Tap(fp.Observe)

	// Callbacks fire on the source host's shard worker; with every series
	// starting at the same instant, two completions can share one
	// coordinator window (no barrier between them), so each pair gets its
	// own counter slot and the total is summed after the run joins.
	hosts := []string{"H1", "H2", "H3", "H4"}
	var pairs [][2]string
	for _, an := range hosts {
		for _, bn := range hosts {
			if an != bn {
				pairs = append(pairs, [2]string{an, bn})
			}
		}
	}
	perPair := make([]int, len(pairs))
	for i, pr := range pairs {
		a := built.Host(pr[0])
		b := built.Host(pr[1])
		slot := &perPair[i]
		built.Engine.At(built.Now()+5*time.Millisecond, func() {
			a.PingSeries(b.IP(), 4, 120, 5*time.Millisecond, time.Second, func(rs []host.PingResult) {
				for _, r := range rs {
					if r.Err == nil {
						*slot++
					}
				}
			})
		})
	}
	built.RunFor(3 * time.Second)
	built.Run()
	answered := 0
	for _, n := range perPair {
		answered += n
	}
	if live := built.Network.LiveFrames(); live != 0 {
		t.Fatalf("shards=%d: %d frames still live after drain", shards, live)
	}
	return fp.Sum(), fp.Events(), answered
}

// TestShardedBurstMatchesSingleEngine extends the determinism gate to
// the same-instant burst: the workload must produce the identical tap
// trace on one engine or on two, three or four shards, byte for byte.
func TestShardedBurstMatchesSingleEngine(t *testing.T) {
	baseFP, baseEv, baseOK := runShardedGridBurst(t, 1)
	if baseOK == 0 {
		t.Fatal("no pings answered on the unsharded run")
	}
	for _, k := range []int{2, 3, 4} {
		fp, ev, ok := runShardedGridBurst(t, k)
		if fp != baseFP || ev != baseEv || ok != baseOK {
			t.Fatalf("shards=%d diverged: fp=%#x events=%d answered=%d, want fp=%#x events=%d answered=%d",
				k, fp, ev, ok, baseFP, baseEv, baseOK)
		}
	}
}

// TestPartitionAssignCoversFabric sanity-checks the partitioner: every
// node assigned, shards within range and roughly balanced, hosts co-located
// with their edge bridge.
func TestPartitionAssignCoversFabric(t *testing.T) {
	built := Grid(DefaultOptions(ARPPath, 7), 4, 4)
	const k = 4
	assign := PartitionAssign(built.Net, k)
	counts := make([]int, k)
	for _, nd := range built.Network.Nodes() {
		s, ok := assign[nd.Name()]
		if !ok {
			t.Fatalf("node %s unassigned", nd.Name())
		}
		if s < 0 || s >= k {
			t.Fatalf("node %s out of range shard %d", nd.Name(), s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d empty: %v", s, counts)
		}
	}
	for name, h := range built.Hosts {
		edge := h.Port().Peer().Node().Name()
		if assign[name] != assign[edge] {
			t.Fatalf("host %s on shard %d but edge bridge %s on shard %d", name, assign[name], edge, assign[edge])
		}
	}
}
