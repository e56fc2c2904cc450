package fabric

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/learning"
)

// runToBuffer runs a spec capturing Out.
func runToBuffer(t *testing.T, r Runner) (*Result, string) {
	t.Helper()
	var out bytes.Buffer
	r.Out = &out
	res, err := r.Run()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	return res, out.String()
}

// TestRunnerFingerprintShardInvariant is the SDK's determinism gate: the
// same Spec produces the same trace fingerprint on the single engine and
// on the sharded parallel engine, across distinct workload shapes.
func TestRunnerFingerprintShardInvariant(t *testing.T) {
	spec := Spec{
		Seed:     11,
		Topology: TopologySpec{Family: "ring", N: 6},
		Workload: WorkloadSpec{Kind: "ping", Pings: 4, Interval: Duration(5 * time.Millisecond)},
		Verify:   VerifySpec{Fingerprint: true},
	}
	res1, _ := runToBuffer(t, Runner{Spec: spec})
	if res1.Fingerprint == 0 || res1.Fabrics == 0 {
		t.Fatalf("no fingerprint collected: %+v", res1)
	}
	again, _ := runToBuffer(t, Runner{Spec: spec})
	if again.Fingerprint != res1.Fingerprint || again.TraceEvents != res1.TraceEvents {
		t.Fatalf("rerun diverged: %#x/%d vs %#x/%d",
			again.Fingerprint, again.TraceEvents, res1.Fingerprint, res1.TraceEvents)
	}
	spec.Shards = 3
	sharded, _ := runToBuffer(t, Runner{Spec: spec})
	if sharded.Fingerprint != res1.Fingerprint || sharded.TraceEvents != res1.TraceEvents {
		t.Fatalf("shards=3 diverged: %#x/%d vs %#x/%d",
			sharded.Fingerprint, sharded.TraceEvents, res1.Fingerprint, res1.TraceEvents)
	}
}

// TestRunnerScaleTables: the scale workload reports on Out only — the
// shard-invariant table, then the coordinator's counts per shard count —
// and the same Spec prints the same bytes at another GOMAXPROCS.
func TestRunnerScaleTables(t *testing.T) {
	spec := Spec{Shards: 2, Workload: WorkloadSpec{Kind: "scale", Bridges: 32}}
	res, out := runToBuffer(t, Runner{Spec: spec})
	if len(res.Tables) != 2 {
		t.Fatalf("scale emitted %d tables, want 2:\n%s", len(res.Tables), out)
	}
	// Columns: bridges, shards, lookahead, windows, barriers, exchanged.
	coord := res.Tables[1]
	if coord.Rows() != 2 || coord.Cell(0, 3) != "0" || coord.Cell(1, 1) != "2" || coord.Cell(1, 3) == "0" {
		t.Fatalf("coordinator table: want a zero shards=1 row and a windowed shards=2 row:\n%s", coord)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, again := runToBuffer(t, Runner{Spec: spec}); again != out {
		t.Fatalf("GOMAXPROCS=1 rerun differs:\n%s\nwant:\n%s", again, out)
	}
}

// TestRunnerSweep drives the scenario harness through the Spec path: a
// small sweep with the proxy extension enabled must pass every invariant
// and fold a deterministic fingerprint.
func TestRunnerSweep(t *testing.T) {
	spec := Spec{
		Workload: WorkloadSpec{Kind: "sweep"},
		Protocol: ProtocolSpec{Name: "arppath", Config: json.RawMessage(`{"proxy":true}`)},
		Scenario: &ScenarioSpec{
			Topologies: []string{"erdos-renyi"},
			Faults:     []string{"link-flaps", "host-mobility"},
			Seeds:      2,
		},
		Verify: VerifySpec{Fingerprint: true},
	}
	res, out := runToBuffer(t, Runner{Spec: spec, Jobs: 2, Verbose: true})
	if res.Failures != 0 {
		t.Fatalf("sweep failed:\n%s", out)
	}
	if !strings.Contains(out, "4 scenarios, 0 failed") {
		t.Fatalf("unexpected sweep summary:\n%s", out)
	}
	if res.Fingerprint == 0 || res.Fabrics != 4 {
		t.Fatalf("sweep fingerprint not folded: %+v", res)
	}
	again, _ := runToBuffer(t, Runner{Spec: spec, Jobs: 1})
	if again.Fingerprint != res.Fingerprint {
		t.Fatalf("sweep fingerprint depends on jobs: %#x vs %#x", again.Fingerprint, res.Fingerprint)
	}

	// Proxy aside, the sweep runs the registered defaults: any other
	// tuning is refused, whichever sweepable protocol carries it.
	for name, ext := range map[string]string{
		"arppath":  `{"proxy":true,"lock_timeout":"50ms"}`,
		"flowpath": `{"pair_capacity":8,"pair_policy":"lru"}`,
	} {
		spec.Protocol = ProtocolSpec{Name: name, Config: json.RawMessage(ext)}
		var sink bytes.Buffer
		if _, err := (&Runner{Spec: spec, Out: &sink}).Run(); err == nil || !strings.Contains(err.Error(), "default "+name+" config") {
			t.Errorf("%s sweep with tuning %s: err %v, want a refusal", name, ext, err)
		}
	}
}

// TestOutOfTreeProtocolPluggable is the registry's reason to exist: a
// protocol this package has never heard of registers at runtime and is
// immediately buildable from a Spec by name, config extension included.
func TestOutOfTreeProtocolPluggable(t *testing.T) {
	type variantConfig struct {
		Aging Duration `json:"aging,omitempty"`
	}
	RegisterProtocol("test-variant", Proto[variantConfig]{
		Defaults: func(c variantConfig) variantConfig {
			if c.Aging == 0 {
				c.Aging = Duration(time.Minute)
			}
			return c
		},
		WarmUp: func(variantConfig) time.Duration { return 10 * time.Millisecond },
		New: func(net *Network, name string, numID int, c variantConfig) Bridge {
			return learning.NewWithConfig(net, name, numID, learning.Config{Aging: c.Aging})
		},
	})

	found := false
	for _, p := range Protocols() {
		if p == "test-variant" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered protocol not listed")
	}

	spec := Spec{
		Topology: TopologySpec{Family: "line", N: 2},
		Protocol: ProtocolSpec{Name: "test-variant", Config: json.RawMessage(`{"aging":"30s"}`)},
		Workload: WorkloadSpec{Kind: "ping", Pings: 2, Interval: Duration(time.Millisecond)},
	}
	_, out := runToBuffer(t, Runner{Spec: spec})
	if !strings.Contains(out, "protocol=test-variant") || !strings.Contains(out, "lost=0") {
		t.Fatalf("variant did not carry traffic:\n%s", out)
	}

	// The registry owns the decode, so the variant's extension is strict
	// without the variant writing a line of codec.
	spec.Protocol.Config = json.RawMessage(`{"aging":"30s","agingg":"1s"}`)
	if _, err := spec.WithDefaults(); err == nil || !strings.Contains(err.Error(), "agingg") {
		t.Fatalf("unknown key in an out-of-tree extension not rejected: %v", err)
	}
}
