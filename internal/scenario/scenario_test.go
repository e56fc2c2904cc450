package scenario

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/flowpath"
	"repro/internal/topo"
)

// sweepTopos × sweepFaults × sweepSeeds is the tier-1 sweep: 4 topology
// families × 6 fault-schedule families × 4 seeds = 96 scenarios. The
// mixed schedule and the fat tree are exercised separately (determinism
// test, the sweep workload) to keep tier-1 wall-clock in check.
var (
	sweepTopos  = []string{"erdos-renyi", "ring-of-rings", "random-regular", "grid"}
	sweepFaults = []FaultFamily{FaultsLinkFlaps, FaultsBridgeRestarts, FaultsUnidirLoss, FaultsQueuePressure, FaultsPartition, FaultsHostMobility}
	sweepSeeds  = []int64{1, 2, 3, 4}
)

// TestScenarioSweep runs the full 96-scenario grid and requires every
// invariant to hold in every one. A failure seed reproduces exactly as a
// one-scenario sweep Spec (a sweep's shrink report prints it as its
// "reproduce:" line):
//
//	go run ./cmd/arppath-sim -spec <(echo '{"seed":<n>,"workload":{"kind":"sweep"},
//	    "scenario":{"topologies":["<family>"],"faults":["<family>"],"seeds":1}}')
func TestScenarioSweep(t *testing.T) {
	ran := 0
	for _, tf := range sweepTopos {
		for _, ff := range sweepFaults {
			for _, seed := range sweepSeeds {
				cfg := Config{Seed: seed, Topology: tf, Faults: ff}
				t.Run(cfg.Name(), func(t *testing.T) {
					r := Run(cfg)
					if r.Failed() {
						for _, v := range r.Violations {
							t.Errorf("%v", v)
						}
						if r.ViolationsDropped > 0 {
							t.Errorf("+%d further violations", r.ViolationsDropped)
						}
						for _, op := range r.OpsApplied {
							t.Logf("schedule: %s", op)
						}
					}
					if !r.Drained {
						t.Errorf("scenario did not drain")
					}
					if r.ProbesAnswered != r.ProbesSent {
						t.Errorf("probes answered %d/%d", r.ProbesAnswered, r.ProbesSent)
					}
				})
				ran++
			}
		}
	}
	if ran < 96 {
		t.Fatalf("sweep ran %d scenarios, want >= 96", ran)
	}
}

// TestScenarioSweepProxy runs a proxy-enabled slice of the sweep: the
// same invariants must hold when every bridge runs the in-switch ARP
// proxy, plus the proxy-consistency check (no blind spot for proxy mode).
// Mobility is included deliberately — snooped bindings must stay correct
// across station moves.
func TestScenarioSweepProxy(t *testing.T) {
	for _, tf := range sweepTopos {
		for _, ff := range []FaultFamily{FaultsLinkFlaps, FaultsHostMobility} {
			for _, seed := range []int64{1, 2} {
				cfg := Config{Seed: seed, Topology: tf, Faults: ff, Proxy: true}
				t.Run(cfg.Name(), func(t *testing.T) {
					r := Run(cfg)
					if r.Failed() {
						for _, v := range r.Violations {
							t.Errorf("%v", v)
						}
						for _, op := range r.OpsApplied {
							t.Logf("schedule: %s", op)
						}
					}
					if !r.Drained {
						t.Errorf("scenario did not drain")
					}
				})
			}
		}
	}
}

// TestHostMobilitySchedulesMove pins that the mobility family really
// moves stations on the host-per-bridge families (spare jacks exist and
// the generated schedule uses them) and that such scenarios verify: the
// fabric re-locks every moved station from its gratuitous ARP alone.
func TestHostMobilitySchedulesMove(t *testing.T) {
	moves := 0
	for _, tf := range []string{"erdos-renyi", "ring-of-rings", "random-regular"} {
		for _, seed := range sweepSeeds {
			r := Run(Config{Seed: seed, Topology: tf, Faults: FaultsHostMobility})
			if r.Failed() {
				t.Fatalf("%s/host-mobility/seed=%d failed: %v", tf, seed, r.Violations)
			}
			for _, op := range r.Ops {
				if op.Kind == OpHostMove {
					moves++
				}
			}
		}
	}
	if moves == 0 {
		t.Fatal("no OpHostMove generated across the mobility sweep — spare jacks missing?")
	}
}

// TestScenarioShardedMatchesSingle is PR 2's machinery meeting PR 3's
// engine: the same scenario run on 1 shard and on a partitioned parallel
// engine must produce the identical trace fingerprint, event count,
// violation list and probe accounting. One scenario per topology family,
// mixed faults where the fabric is meshy enough to take them.
func TestScenarioShardedMatchesSingle(t *testing.T) {
	cases := []Config{
		{Seed: 5, Topology: "erdos-renyi", Faults: FaultsMixed},
		{Seed: 6, Topology: "grid", Faults: FaultsPartition},
		{Seed: 7, Topology: "ring-of-rings", Faults: FaultsLinkFlaps},
		{Seed: 8, Topology: "fattree", Faults: FaultsBridgeRestarts},
		{Seed: 9, Topology: "random-regular", Faults: FaultsHostMobility},
		{Seed: 10, Topology: "erdos-renyi", Faults: FaultsLinkFlaps, Proxy: true},
		{Seed: 11, Topology: "erdos-renyi", Faults: FaultsMixed, Protocol: flowpath.ProtoFlowPath},
		{Seed: 12, Topology: "ring-of-rings", Faults: FaultsBridgeRestarts, Protocol: flowpath.ProtoTCPPath},
	}
	for _, base := range cases {
		base := base
		t.Run(base.Name(), func(t *testing.T) {
			single := Run(base)
			for _, k := range []int{2, 4} {
				cfg := base
				cfg.Shards = k
				sharded := Run(cfg)
				if sharded.Fingerprint != single.Fingerprint || sharded.Events != single.Events {
					t.Fatalf("shards=%d trace diverged: fp=%#x events=%d, want fp=%#x events=%d",
						k, sharded.Fingerprint, sharded.Events, single.Fingerprint, single.Events)
				}
				if fmt.Sprint(sharded.Violations) != fmt.Sprint(single.Violations) {
					t.Fatalf("shards=%d violations diverged:\n%v\nvs\n%v", k, sharded.Violations, single.Violations)
				}
				if sharded.ProbesAnswered != single.ProbesAnswered ||
					sharded.WarmProbesAnswered != single.WarmProbesAnswered ||
					sharded.BackgroundDelivered != single.BackgroundDelivered {
					t.Fatalf("shards=%d accounting diverged: %+v vs %+v", k, sharded, single)
				}
			}
		})
	}
}

// TestScenarioDeterminism runs one scenario per family pairing twice
// (plus a mixed-fault fat tree) and requires bit-identical traces: same
// seed, same fingerprint, same event count, same violations.
func TestScenarioDeterminism(t *testing.T) {
	cfgs := []Config{
		{Seed: 7, Topology: "erdos-renyi", Faults: FaultsMixed},
		{Seed: 7, Topology: "ring-of-rings", Faults: FaultsLinkFlaps},
		{Seed: 7, Topology: "random-regular", Faults: FaultsBridgeRestarts},
		{Seed: 7, Topology: "grid", Faults: FaultsUnidirLoss},
		{Seed: 7, Topology: "fattree", Faults: FaultsMixed},
	}
	for _, cfg := range cfgs {
		t.Run(cfg.Name(), func(t *testing.T) {
			a, b := Run(cfg), Run(cfg)
			if a.Fingerprint != b.Fingerprint || a.Events != b.Events {
				t.Fatalf("trace diverged: run1 fp=%#x events=%d, run2 fp=%#x events=%d",
					a.Fingerprint, a.Events, b.Fingerprint, b.Events)
			}
			if len(a.Violations) != len(b.Violations) {
				t.Fatalf("violations diverged: %d vs %d", len(a.Violations), len(b.Violations))
			}
			// Replaying the generated schedule must also reproduce the trace.
			c := Replay(cfg, a.Ops)
			if c.Fingerprint != a.Fingerprint {
				t.Fatalf("replay diverged: fp=%#x want %#x", c.Fingerprint, a.Fingerprint)
			}
		})
	}
}

// TestScenarioFrameAccountingAcrossFailures checks the refcount invariant
// specifically across the faults that exercise Retain/Release edge cases:
// bridge restarts (buffered repair frames dropped mid-flight) and flaps
// (in-flight frames killed by epoch bumps) must still drain to zero.
func TestScenarioFrameAccountingAcrossFailures(t *testing.T) {
	for _, ff := range []FaultFamily{FaultsBridgeRestarts, FaultsLinkFlaps, FaultsMixed} {
		r := Run(Config{Seed: 11, Topology: "erdos-renyi", Faults: ff})
		if !r.Drained {
			t.Fatalf("%s: did not drain", ff)
		}
		for _, v := range r.Violations {
			if v.Invariant == InvFrameDrain {
				t.Errorf("%s: %v", ff, v)
			}
		}
	}
}

// TestShrinkOps pins the delta-debugging reduction: a failure caused by
// the interaction of two specific ops out of twelve shrinks to exactly
// those two, and the predicate is never handed an empty schedule.
func TestShrinkOps(t *testing.T) {
	ops := make([]FaultOp, 12)
	for i := range ops {
		ops[i] = FaultOp{At: time.Duration(i) * time.Millisecond, Kind: OpLinkDown, Link: i}
	}
	calls := 0
	fails := func(sub []FaultOp) bool {
		calls++
		if len(sub) == 0 {
			t.Fatal("predicate called with empty schedule")
		}
		has := func(link int) bool {
			for _, op := range sub {
				if op.Link == link {
					return true
				}
			}
			return false
		}
		return has(3) && has(7)
	}
	min := ShrinkOps(ops, fails)
	if len(min) != 2 || min[0].Link != 3 || min[1].Link != 7 {
		t.Fatalf("shrunk to %v, want ops for links 3 and 7", min)
	}
	if calls > 100 {
		t.Fatalf("shrink used %d replays for 12 ops", calls)
	}

	// A passing schedule is returned unchanged.
	same := ShrinkOps(ops, func([]FaultOp) bool { return false })
	if len(same) != len(ops) {
		t.Fatalf("passing schedule was shrunk to %d ops", len(same))
	}
}

// TestShrinkEndToEnd exercises Shrink against real replays: a passing
// scenario reports ok=false (nothing to shrink), deterministically.
func TestShrinkEndToEnd(t *testing.T) {
	cfg := Config{Seed: 3, Topology: "ring-of-rings", Faults: FaultsLinkFlaps}
	r := Run(cfg)
	if r.Failed() {
		t.Fatalf("expected passing scenario, got %v", r.Violations)
	}
	if _, _, ok := Shrink(cfg, r.Ops); ok {
		t.Fatal("Shrink reproduced a failure from a passing scenario")
	}
}

func ExampleConfig_Name() {
	fmt.Println(Config{Seed: 42, Topology: "erdos-renyi", Faults: FaultsMixed}.Name())
	// Output: erdos-renyi/mixed/seed=42
}

// TestShardLocalOpsReduceBarriers pins the barrier-reduction half of the
// shard-local fault routing: the same -big scenario, run at shards=2 with
// classification on and with every op forced onto the barrier path, must
// pass both ways — and the classified run must use strictly fewer
// coordinator barriers. (Trace equivalence across shard counts is pinned
// separately by TestScenarioShardedMatchesSingle; barrier-forced mode
// re-keys the ops, so its fingerprint is not comparable.)
func TestShardLocalOpsReduceBarriers(t *testing.T) {
	cfg := Config{Seed: 2, Topology: "erdos-renyi", Faults: FaultsMixed, Shards: 2, Big: true}
	classified := Run(cfg)
	if classified.Failed() {
		t.Fatalf("classified run failed: %v", classified.Violations)
	}
	forceBarrierOps = true
	defer func() { forceBarrierOps = false }()
	forced := Run(cfg)
	if forced.Failed() {
		t.Fatalf("barrier-forced run failed: %v", forced.Violations)
	}
	if classified.Barriers >= forced.Barriers {
		t.Fatalf("barriers: classified=%d, forced=%d — intra-shard ops did not leave the barrier path",
			classified.Barriers, forced.Barriers)
	}
	t.Logf("barriers: classified=%d forced=%d (ops=%d)", classified.Barriers, forced.Barriers, len(classified.Ops))
}

// TestScenarioSweepVariants runs the invariant library against the
// All-Path variants: Flow-Path and TCP-Path fabrics under the same
// seeded topologies and fault schedules must hold loop-freedom, flood
// bounds, table consistency (per-pair walks for flowpath, MAC + conn
// walks for tcppath), eventual delivery and frame-drain — and tcppath
// runs must complete a post-quiescence TCP transfer through a fresh
// SYN-flood-raced connection path.
func TestScenarioSweepVariants(t *testing.T) {
	for _, proto := range []topo.Protocol{flowpath.ProtoFlowPath, flowpath.ProtoTCPPath} {
		for _, tf := range sweepTopos {
			for _, ff := range []FaultFamily{FaultsLinkFlaps, FaultsBridgeRestarts, FaultsQueuePressure, FaultsPartition} {
				for _, seed := range []int64{1, 2} {
					cfg := Config{Seed: seed, Topology: tf, Faults: ff, Protocol: proto}
					t.Run(cfg.Name(), func(t *testing.T) {
						r := Run(cfg)
						if r.Failed() {
							for _, v := range r.Violations {
								t.Errorf("%v", v)
							}
							if r.ViolationsDropped > 0 {
								t.Errorf("+%d further violations", r.ViolationsDropped)
							}
							for _, op := range r.OpsApplied {
								t.Logf("schedule: %s", op)
							}
						}
						if !r.Drained {
							t.Errorf("scenario did not drain")
						}
						if r.ProbesAnswered != r.ProbesSent {
							t.Errorf("probes answered %d/%d", r.ProbesAnswered, r.ProbesSent)
						}
					})
				}
			}
		}
	}
}
