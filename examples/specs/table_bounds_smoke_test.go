package specs_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestTrackedTablesReproduceGoldens is the capacity=∞ differential gate
// for the bounded-table machinery (DESIGN.md §12): turning on the
// recency tracker without a capacity that can bite — Capacity 0 with an
// eviction policy tracks every entry but never evicts — must reproduce
// each protocol golden fixture byte for byte, trace fingerprint
// included. The tracker's bookkeeping (arena inserts, touches on every
// hit, sweep scheduling) runs on every table operation of the whole
// simulation, so any behavioural leak of the bounding machinery into
// the dataplane shows up as a fingerprint diff. Fixtures without a
// protocol section (fabricbench, arpvstp, pathrepair run fixed demo
// workloads; the sweep rejects protocol tuning) are covered indirectly:
// they build through the same defaulted configs the unbounded baseline
// uses.
func TestTrackedTablesReproduceGoldens(t *testing.T) {
	cases := []struct {
		spec   string // fixture basename in this directory
		config map[string]any
	}{
		{"arppath-sim", map[string]any{"table_policy": "lru"}},
		{"arppath-sim", map[string]any{"table_policy": "clock"}},
		{"flowpath", map[string]any{"pair_policy": "lru"}},
		{"flowpath", map[string]any{"pair_policy": "clock"}},
		{"tcppath", map[string]any{"conn_policy": "lru"}},
		{"tcppath", map[string]any{"conn_policy": "clock"}},
	}
	for _, c := range cases {
		var policy string
		for _, v := range c.config {
			policy = v.(string)
		}
		t.Run(c.spec+"/"+policy, func(t *testing.T) {
			golden, err := os.ReadFile(c.spec + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			path := fixtureCopy(t, c.spec, func(spec map[string]any) {
				proto, _ := spec["protocol"].(map[string]any)
				if proto == nil {
					t.Fatalf("fixture %s has no protocol section", c.spec)
				}
				cfg, _ := proto["config"].(map[string]any)
				if cfg == nil {
					cfg = map[string]any{}
				}
				for k, v := range c.config {
					cfg[k] = v
				}
				proto["config"] = cfg
			})
			out, err := exec.Command(sim, "-spec", path).Output()
			if err != nil {
				t.Fatalf("arppath-sim -spec %s: %v", path, err)
			}
			if string(out) != string(golden) {
				t.Fatalf("tracked-but-unbounded %s (%v) diverged from examples/specs/%s.golden.\ngot:\n%s\nwant:\n%s",
					c.spec, c.config, c.spec, out, golden)
			}
		})
	}
}
