package fabric

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// specSamples are bare specs of the workload families, plus fully
// spelled-out custom ones.
func specSamples() []Spec {
	return []Spec{
		{Workload: WorkloadSpec{Kind: "all"}},
		{Workload: WorkloadSpec{Kind: "sweep"}},
		{Workload: WorkloadSpec{Kind: "ping"}, Topology: TopologySpec{Family: "figure2"}},
		{Workload: WorkloadSpec{Kind: "figure2-demo"}},
		{Workload: WorkloadSpec{Kind: "path-repair"}},
		{
			Seed:     7,
			Shards:   4,
			Topology: TopologySpec{Family: "ring", N: 8},
			Protocol: ProtocolSpec{Name: "arppath", Config: json.RawMessage(`{"lock_timeout":"50ms","proxy":true}`)},
			Link:     LinkSpec{RateBps: 100_000_000, Delay: Duration(20 * time.Microsecond), QueueBytes: 64 << 10},
			Workload: WorkloadSpec{Kind: "allpairs"},
			Verify:   VerifySpec{Fingerprint: true},
		},
		{
			Workload: WorkloadSpec{Kind: "sweep"},
			Scenario: &ScenarioSpec{Topologies: []string{"grid"}, Faults: []string{"host-mobility"}, Seeds: 2},
			Protocol: ProtocolSpec{Name: "arppath", Config: json.RawMessage(`{"proxy":true}`)},
		},
	}
}

// TestSpecRoundTripFixedPoint pins the codec contract: decode → defaults
// → encode → decode → defaults → encode reproduces the same bytes, for
// the samples and every examples/specs fixture.
func TestSpecRoundTripFixedPoint(t *testing.T) {
	fixtures, err := filepath.Glob("../../examples/specs/*.json")
	if err != nil || len(fixtures) == 0 {
		t.Fatalf("no examples/specs fixtures: %v", err)
	}
	samples := specSamples()
	for _, path := range fixtures {
		s, err := LoadSpec(path)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s)
	}
	for _, s := range samples {
		d1, err := s.WithDefaults()
		if err != nil {
			t.Fatalf("%+v: defaults: %v", s, err)
		}
		e1, err := d1.Encode()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		s2, err := DecodeSpec(e1)
		if err != nil {
			t.Fatalf("re-decode: %v\n%s", err, e1)
		}
		d2, err := s2.WithDefaults()
		if err != nil {
			t.Fatalf("re-defaults: %v", err)
		}
		e2, err := d2.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("round trip is not a fixed point:\n--- first\n%s\n--- second\n%s", e1, e2)
		}
	}
}

// TestSpecStrictDecoding pins rejection of unknown fields at every level:
// top, nested, and inside a protocol config extension.
func TestSpecStrictDecoding(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"top-level", `{"workloadd": {"kind": "ping"}}`},
		{"nested", `{"workload": {"knd": "ping"}}`},
		{"topology", `{"topology": {"famly": "ring"}}`},
		{"trailing", `{"seed": 1} {"seed": 2}`},
		{"future-version", `{"version": 99}`},
		{"removed-procs", `{"workload": {"kind": "scale"}, "procs": [1, 2]}`},
		{"removed-frames", `{"workload": {"kind": "scale", "frames": 50000}}`},
		{"removed-shrink", `{"workload": {"kind": "sweep"}, "scenario": {"shrink": false}}`},
		{"removed-fault-phase", `{"workload": {"kind": "sweep"}, "scenario": {"fault_phase": "250ms"}}`},
		{"removed-quiesce", `{"workload": {"kind": "sweep"}, "scenario": {"quiesce": "900ms"}}`},
		{"removed-verify-pairs", `{"workload": {"kind": "sweep"}, "verify": {"pairs": 6}}`},
		{"removed-verify-pings", `{"workload": {"kind": "sweep"}, "verify": {"pings": 2}}`},
		{"removed-with-stp", `{"workload": {"kind": "path-repair", "with_stp": true}}`},
		{"removed-fast-stp", `{"workload": {"kind": "path-repair", "fast_stp": true}}`},
		{"removed-hotspots", `{"workload": {"kind": "matrix", "hotspots": 2}}`},
		{"removed-skew", `{"workload": {"kind": "matrix", "pattern": "pairs", "skew": 1.5}}`},
		{"removed-flow-bytes", `{"workload": {"kind": "matrix", "flow_bytes": 262144}}`},
		{"removed-arrival", `{"workload": {"kind": "matrix", "arrival": "1ms"}}`},
	}
	for _, c := range cases {
		if _, err := DecodeSpec([]byte(c.doc)); err == nil {
			t.Errorf("%s: decoded without error: %s", c.name, c.doc)
		}
	}

	// The protocol keys whose values became constants: the registry's
	// strict decode refuses each, even at its old default, so an old spec,
	// reproduce line or op-log header that carries one fails loudly.
	for _, c := range []struct{ name, proto, key, value string }{
		{"removed-learned-timeout", "arppath", "learned_timeout", `"2m0s"`},
		{"removed-repair-timeout", "arppath", "repair_timeout", `"500ms"`},
		{"removed-repair-buffer", "arppath", "repair_buffer", `64`},
		{"removed-proxy-timeout", "arppath", "proxy_timeout", `"1m0s"`},
		{"removed-flowpath-lock-timeout", "flowpath", "lock_timeout", `"200ms"`},
		{"removed-pair-timeout", "flowpath", "pair_timeout", `"2m0s"`},
		{"removed-host-timeout", "flowpath", "host_timeout", `"2m0s"`},
		{"removed-flowpath-repair-timeout", "flowpath", "repair_timeout", `"500ms"`},
		{"removed-flowpath-repair-buffer", "flowpath", "repair_buffer", `64`},
		{"removed-conn-lock-timeout", "tcppath", "conn_lock_timeout", `"200ms"`},
		{"removed-conn-timeout", "tcppath", "conn_timeout", `"2m0s"`},
		{"removed-aging", "learning", "aging", `"5m0s"`},
		{"removed-learning-table-capacity", "learning", "table_capacity", `16`},
		{"removed-learning-table-policy", "learning", "table_policy", `"lru"`},
	} {
		doc := fmt.Sprintf(`{"protocol": {"name": %q, "config": {%q: %s}}}`, c.proto, c.key, c.value)
		s, err := DecodeSpec([]byte(doc))
		if err != nil {
			t.Fatalf("%s: outer decode failed: %v", c.name, err)
		}
		if _, err := s.WithDefaults(); err == nil || !strings.Contains(err.Error(), `unknown field "`+c.key+`"`) {
			t.Errorf("%s: %s: err %v, want the key refused as unknown", c.name, doc, err)
		}
	}

	// Unknown fields inside a protocol extension surface in WithDefaults,
	// where the registry's codec runs.
	s, err := DecodeSpec([]byte(`{"protocol": {"name": "arppath", "config": {"proxy": true, "bogus": 1}}}`))
	if err != nil {
		t.Fatalf("outer decode failed: %v", err)
	}
	if _, err := s.WithDefaults(); err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Errorf("unknown protocol-config field not rejected: %v", err)
	}
}

// TestSpecTypesFullyTagged pins the wire names of the Spec itself: every
// exported field of every struct the spec decoder fills declares its json
// key, so renaming a Go field cannot silently change the spec format.
// (Protocol config structs get the same check from topo.Register.)
func TestSpecTypesFullyTagged(t *testing.T) {
	for _, v := range []any{Spec{}, TopologySpec{}, ProtocolSpec{}, LinkSpec{}, WorkloadSpec{}, ScenarioSpec{}, VerifySpec{}} {
		typ := reflect.TypeOf(v)
		for i := range typ.NumField() {
			if f := typ.Field(i); f.IsExported() && f.Tag.Get("json") == "" {
				t.Errorf("%s.%s has no json tag", typ, f.Name)
			}
		}
	}
}

// TestSpecRejectsUnusableValues is the spec-file half of "never a panic
// reachable from the wire": each of these decodes cleanly and used to
// reach a constructor, a timer or a make() as a panic. They now fail in
// WithDefaults — so in Run, serve.New and serve.Replay alike — with an
// error naming the field.
func TestSpecRejectsUnusableValues(t *testing.T) {
	cases := []struct{ doc, want string }{
		{`{"protocol":{"name":"arppath","config":{"lock_timeout":"-1s"}}}`, "lock_timeout"},
		{`{"protocol":{"name":"arppath","config":{"table_capacity":-3}}}`, "capacity"},
		{`{"protocol":{"name":"stp","config":{"hello":"-1s"}}}`, "hello"},
		{`{"link":{"rate_bps":-5}}`, "link.rate_bps"},
		{`{"link":{"queue_bytes":-5}}`, "link.queue_bytes"},
		{`{"link":{"delay":"-1us"}}`, "link.delay"},
		{`{"warm_up":"-1s"}`, "warm_up"},
		{`{"workload":{"kind":"ping","pings":-2}}`, "workload.pings"},
		{`{"workload":{"kind":"stream","stream_size":-1}}`, "workload.stream_size"},
	}
	for _, c := range cases {
		s, err := DecodeSpec([]byte(c.doc))
		if err != nil {
			t.Fatalf("%s: decode: %v", c.doc, err)
		}
		if s.Workload.Kind == "" {
			s.Workload.Kind = "ping"
		}
		s.Topology = TopologySpec{Family: "line", N: 2}
		var out bytes.Buffer
		_, err = (&Runner{Spec: s, Out: &out}).Run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Run returned %v, want an error naming %q", c.doc, err, c.want)
		}
	}
}

// TestSpecSizeRules holds WithDefaults to the topology builders' own
// preconditions: for every family, each size a builder panics on and each
// set key the family does not read is a spec: error naming the field, the
// smallest size it accepts builds, and an unknown family is
// BuildTopology's error. scale and allpath size their own random-regular
// fabric from workload.bridges, under the same rule.
func TestSpecSizeRules(t *testing.T) {
	type bad struct {
		t    TopologySpec
		want string // the field the error must name
	}
	cases := map[string]struct {
		good TopologySpec
		bad  []bad
	}{
		"figure1": {TopologySpec{}, []bad{{TopologySpec{N: 3}, "topology.n"}}},
		"figure2": {TopologySpec{Profile: "uniform"}, []bad{
			{TopologySpec{Profile: "bogus"}, "topology.profile"}, {TopologySpec{N: 2}, "topology.n"}}},
		"line": {TopologySpec{N: 1}, []bad{
			{TopologySpec{N: -1}, "topology.n"}, {TopologySpec{N: 3, Degree: -7, Rings: -1}, "topology.rings"}}},
		"ring": {TopologySpec{N: 3}, []bad{
			{TopologySpec{N: 2}, "topology.n"}, {TopologySpec{N: -3}, "topology.n"}, {TopologySpec{SpareJacks: true}, "topology.spare_jacks"}}},
		"grid": {TopologySpec{Rows: 2}, []bad{
			{TopologySpec{Rows: 1}, "topology.rows/cols"}, {TopologySpec{N: 3, Cols: 1}, "topology.rows/cols"},
			{TopologySpec{N: -2}, "topology.rows/cols"}, {TopologySpec{SpareJacks: true}, "topology.spare_jacks"}}},
		"fattree": {TopologySpec{N: 2}, []bad{
			{TopologySpec{N: 3}, "topology.n"}, {TopologySpec{N: -2}, "topology.n"}, {TopologySpec{SpareJacks: true}, "topology.spare_jacks"}}},
		"random": {TopologySpec{N: 2}, []bad{
			{TopologySpec{N: 1}, "topology.n"}, {TopologySpec{N: 4, ExtraEdges: -3}, "topology.extra_edges"},
			{TopologySpec{SpareJacks: true}, "topology.spare_jacks"}}},
		"erdos-renyi": {TopologySpec{N: 2, P: 1}, []bad{
			{TopologySpec{N: 1}, "topology.n"}, {TopologySpec{P: 1.5}, "topology.p"}, {TopologySpec{P: -0.1}, "topology.p"},
			{TopologySpec{Degree: 3}, "topology.degree"}}},
		"ring-of-rings": {TopologySpec{Rings: 2, RingSize: 3}, []bad{
			{TopologySpec{Rings: 1}, "topology.rings"}, {TopologySpec{RingSize: 2}, "topology.ring_size"}, {TopologySpec{N: 4}, "topology.n"}}},
		"random-regular": {TopologySpec{N: 4, Degree: 2}, []bad{
			{TopologySpec{N: 7}, "topology.n"}, {TopologySpec{N: 2}, "topology.n"},
			{TopologySpec{N: 4, Degree: 4}, "topology.degree"}, {TopologySpec{Degree: 1}, "topology.degree"},
			{TopologySpec{P: 0.5}, "topology.p"}}},
	}
	for _, family := range []string{"figure1", "figure2", "line", "ring", "grid", "fattree", "random",
		"erdos-renyi", "ring-of-rings", "random-regular"} {
		c, ok := cases[family]
		if !ok {
			t.Errorf("family %q has no size-rule case", family)
			continue
		}
		spec := Spec{Workload: WorkloadSpec{Kind: "ping"}}
		for _, b := range c.bad {
			spec.Topology = b.t
			spec.Topology.Family = family
			if _, err := spec.WithDefaults(); err == nil || !strings.HasPrefix(err.Error(), "spec: "+b.want) {
				t.Errorf("%s %+v: WithDefaults returned %v, want a spec: error naming %s", family, b.t, err, b.want)
			}
		}
		spec.Topology = c.good
		spec.Topology.Family = family
		d, err := spec.WithDefaults()
		if err != nil {
			t.Errorf("%s %+v: smallest good value rejected: %v", family, c.good, err)
			continue
		}
		opts, err := d.Options()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := BuildTopology(opts, d.Topology); err != nil {
			t.Errorf("%s %+v: %v", family, c.good, err)
		}
	}

	if _, err := BuildTopology(topo.DefaultOptions(topo.ARPPath, 1), TopologySpec{Family: "torus"}); err == nil {
		t.Error("unknown topology family built")
	}

	for _, kind := range []string{"scale", "allpath"} {
		for _, bridges := range []int{2, 3, 7} {
			_, err := Spec{Workload: WorkloadSpec{Kind: kind, Bridges: bridges}}.WithDefaults()
			if err == nil || !strings.HasPrefix(err.Error(), "spec: workload.bridges") {
				t.Errorf("%s bridges=%d: WithDefaults returned %v, want a spec: error naming workload.bridges", kind, bridges, err)
			}
		}
		if _, err := (Spec{Workload: WorkloadSpec{Kind: kind, Bridges: 4}}).WithDefaults(); err != nil {
			t.Errorf("%s bridges=4 rejected: %v", kind, err)
		}
	}
}

// TestSweepDrawsAreSpecs ties the sweep to the Spec: every shape a sweep
// family draws, at both tiers and seeds 1–32, is a defaulted, valid
// TopologySpec with nothing left to fill, and BuildTopology on it builds
// the fabric scenario.Run reports — so any scenario's fabric can be named
// as a Spec.
func TestSweepDrawsAreSpecs(t *testing.T) {
	for _, family := range topo.Families(true) {
		for _, big := range []bool{false, true} {
			for seed := int64(1); seed <= 32; seed++ {
				shape := topo.Draw(family, rand.New(rand.NewSource(seed)), big)
				if d, err := shape.WithDefaults(); err != nil || d != shape {
					t.Fatalf("%s big=%v seed=%d: drawn %+v, defaulted %+v, err %v", family, big, seed, shape, d, err)
				}
				built, err := BuildTopology(topo.DefaultOptions(topo.ARPPath, seed), shape)
				if err != nil {
					t.Fatal(err)
				}
				r := scenario.Run(scenario.Config{Seed: seed, Topology: family, Big: big})
				if got, want := [3]int{len(built.Bridges), len(built.Hosts), len(built.Links)}, [3]int{r.Bridges, r.Hosts, r.Links}; got != want {
					t.Errorf("%s big=%v seed=%d: BuildTopology(%+v) has bridges/hosts/links %v, the scenario %v", family, big, seed, shape, got, want)
				}
			}
		}
	}
}

// TestPaperRowsAreSpecs ties the paper's rows to the Spec as
// TestSweepDrawsAreSpecs ties the sweep: every fabric that the all,
// figure1, figure2-demo, path-repair, allpath and scale kinds build is
// named by a one-line Spec (logged: seed, shards, topology, protocol with
// its config, link, warm_up), and DecodeSpec → WithDefaults → Options on
// that line returns exactly the Options and TopologySpec it was built
// from. The tables sweep's pressure fabric is the one exception, and the
// test holds it to that: a ring with chords and synthetic multiplexing
// stations is no family, so its fabrics carry no TopologySpec.
func TestPaperRowsAreSpecs(t *testing.T) {
	var nets []*topo.Net
	prev := topo.OnBuilt
	topo.OnBuilt = func(n *topo.Net) { nets = append(nets, n) }
	defer func() { topo.OnBuilt = prev }()

	run := func(w WorkloadSpec) func() {
		return func() {
			r := Runner{Spec: Spec{Shards: 2, Workload: w}, Out: io.Discard}
			if _, err := r.Run(); err != nil {
				t.Fatalf("%s: %v", w.Kind, err)
			}
		}
	}
	for _, row := range []struct {
		name string
		run  func()
	}{
		{"all", run(WorkloadSpec{Kind: "all"})},
		{"figure2-demo", run(WorkloadSpec{Kind: "figure2-demo", Pings: 2})},
		{"path-repair", run(WorkloadSpec{Kind: "path-repair", StreamSize: 4 << 20})},
		{"allpath", run(WorkloadSpec{Kind: "allpath", Bridges: 8, Flows: 4})},
		{"scale", run(WorkloadSpec{Kind: "scale", Bridges: 16})},
		{"figure1", run(WorkloadSpec{Kind: "figure1"})},
		{"tables (the exception)", run(WorkloadSpec{Kind: "tables", Conversations: 64})},
	} {
		nets = nil
		row.run()
		if len(nets) == 0 {
			t.Fatalf("%s built no fabric", row.name)
		}
		for i, n := range nets {
			if row.name == "tables (the exception)" {
				if n.Topology != (TopologySpec{}) {
					t.Errorf("tables fabric %d has topology %+v; the pressure fabric is no family", i, n.Topology)
				}
				continue
			}
			def, _ := topo.LookupProtocol(n.Opts.Protocol)
			cfg, err := def.Encode(n.Opts.ProtocolConfig)
			if err != nil {
				t.Fatal(err)
			}
			line, err := json.Marshal(Spec{
				Seed: n.Opts.Seed, Shards: n.Opts.Shards, Topology: n.Topology,
				Protocol: ProtocolSpec{Name: string(n.Opts.Protocol), Config: cfg},
				Link:     LinkSpec{RateBps: n.Opts.Link.Rate, Delay: Duration(n.Opts.Link.Delay), QueueBytes: n.Opts.Link.Queue},
				WarmUp:   Duration(n.Opts.WarmUp),
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s fabric %d: %s", row.name, i, line)
			spec, err := DecodeSpec(line)
			if err == nil {
				spec, err = spec.WithDefaults()
			}
			var opts Options
			if err == nil {
				opts, err = spec.Options()
			}
			if err != nil {
				t.Fatalf("%s fabric %d: %s: %v", row.name, i, line, err)
			}
			if !reflect.DeepEqual(opts, n.Opts) || spec.Topology != n.Topology {
				t.Errorf("%s fabric %d: %s compiles to %+v on %+v, the fabric was built from %+v on %+v",
					row.name, i, line, opts, spec.Topology, n.Opts, n.Topology)
			}
		}
	}
}

// TestSpecUnknownNamesRejected covers workload-kind, protocol,
// topology-family and fault family validation.
func TestSpecUnknownNamesRejected(t *testing.T) {
	// forward is no workload: bench/perf's pump_forward is that pump's
	// one timer. WithDefaults refuses it and lists the kinds there are.
	if _, err := (Spec{Workload: WorkloadSpec{Kind: "forward"}}).WithDefaults(); err == nil ||
		!strings.HasPrefix(err.Error(), `spec: unknown workload kind "forward" (known: ping, `) {
		t.Errorf("forward workload: err %v, want an unknown workload kind listing the known ones", err)
	}
	if _, err := (Spec{Workload: WorkloadSpec{Kind: "matrix", Pattern: "nope"}}).WithDefaults(); err == nil ||
		!strings.HasPrefix(err.Error(), "spec: workload.pattern") {
		t.Errorf("matrix pattern nope: err %v, want a spec: error naming workload.pattern", err)
	}
	if _, err := (Spec{Protocol: ProtocolSpec{Name: "flow-path"}}).WithDefaults(); err == nil {
		t.Error("unknown protocol accepted")
	}
	bad := Spec{Workload: WorkloadSpec{Kind: "sweep"}, Scenario: &ScenarioSpec{Topologies: []string{"torus"}}}
	if _, err := bad.WithDefaults(); err == nil {
		t.Error("unknown sweep topology family accepted")
	}
	// The retired sweep spelling of the fat tree is refused, and the error
	// names the one spelling there is.
	bad = Spec{Workload: WorkloadSpec{Kind: "sweep"}, Scenario: &ScenarioSpec{Topologies: []string{"fat-tree"}}}
	if _, err := bad.WithDefaults(); err == nil || !strings.Contains(err.Error(), "fattree") {
		t.Errorf("scenario.topologies [fat-tree]: err %v, want an error naming fattree", err)
	}
	if _, err := (Spec{Topology: TopologySpec{Family: "fat-tree"}}).WithDefaults(); err == nil || !strings.Contains(err.Error(), "fattree") {
		t.Errorf("topology.family fat-tree: err %v, want an error naming fattree", err)
	}
	bad = Spec{Workload: WorkloadSpec{Kind: "sweep"}, Scenario: &ScenarioSpec{Faults: []string{"meteor-strike"}}}
	if _, err := bad.WithDefaults(); err == nil {
		t.Error("unknown fault family accepted")
	}
}

// specKeys sets each Spec key a kind may read, besides everyKind's, to a
// value every kind that reads it accepts.
var specKeys = map[string]func(*Spec){
	"topology":               func(s *Spec) { s.Topology = TopologySpec{Family: "ring", N: 4} },
	"protocol":               func(s *Spec) { s.Protocol = ProtocolSpec{Name: "arppath"} },
	"link":                   func(s *Spec) { s.Link = LinkSpec{RateBps: 1e8, Delay: Duration(time.Microsecond), QueueBytes: 1 << 16} },
	"warm_up":                func(s *Spec) { s.WarmUp = Duration(time.Second) },
	"scenario":               func(s *Spec) { s.Scenario = &ScenarioSpec{Seeds: 1} },
	"workload.pings":         func(s *Spec) { s.Workload.Pings = 2 },
	"workload.interval":      func(s *Spec) { s.Workload.Interval = Duration(time.Millisecond) },
	"workload.stream_size":   func(s *Spec) { s.Workload.StreamSize = 1000 },
	"workload.failures":      func(s *Spec) { s.Workload.Failures = 1 },
	"workload.bridges":       func(s *Spec) { s.Workload.Bridges = 8 },
	"workload.pattern":       func(s *Spec) { s.Workload.Pattern = "pairs" },
	"workload.flows":         func(s *Spec) { s.Workload.Flows = 3 },
	"workload.conversations": func(s *Spec) { s.Workload.Conversations = 10 },
}

// TestKindTableKeys holds WithDefaults to the kind table: for every row,
// a Spec that sets every key the kind reads is accepted, and the same
// Spec with any other key set is refused by an error naming the key and
// the kind. A matrix Spec is tried once per pattern, with the keys that
// pattern reads; a matrix key another pattern reads is refused naming the
// key and the pattern. specKeys covers every key of the Spec but
// everyKind's; an unexported field is no key.
func TestKindTableKeys(t *testing.T) {
	spec := reflect.TypeOf(Spec{})
	for i := range spec.NumField() {
		f := spec.Field(i)
		if !f.IsExported() {
			continue
		}
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		sub := []string{key}
		if key == "workload" || key == "verify" {
			sub = nil
			for j := range f.Type.NumField() {
				name, _, _ := strings.Cut(f.Type.Field(j).Tag.Get("json"), ",")
				sub = append(sub, key+"."+name)
			}
		}
		for _, k := range sub {
			if _, ok := specKeys[k]; !ok && !slices.Contains(everyKind, k) {
				t.Errorf("Spec key %s has no specKeys sample", k)
			}
		}
	}
	keys := slices.Sorted(maps.Keys(specKeys))
	for _, k := range kinds {
		rows := []pattern{{}}
		if k.name == "matrix" {
			rows = patterns
		}
		for _, row := range rows {
			p, reads, who := row.name, k.keys, fmt.Sprintf("kind %q", k.name)
			if p != "" {
				reads = onFabric()
				for _, key := range slices.Concat(everyPattern, row.keys) {
					if key != "kind" {
						reads = append(reads, "workload."+key)
					}
				}
			}
			full := Spec{Workload: WorkloadSpec{Kind: k.name}}
			for _, key := range reads {
				set, ok := specKeys[key]
				if !ok {
					t.Fatalf("kind %q reads %s, which has no specKeys sample", k.name, key)
				}
				set(&full)
			}
			full.Workload.Pattern = cmp.Or(p, full.Workload.Pattern)
			if _, err := full.WithDefaults(); err != nil {
				t.Errorf("kind %q pattern %q with every key it reads set: %v", k.name, p, err)
			}
			for _, key := range keys {
				if slices.Contains(reads, key) {
					continue
				}
				s := full
				specKeys[key](&s)
				want := who
				if slices.Contains(k.keys, key) {
					want = fmt.Sprintf("matrix pattern %q", p)
				}
				_, err := s.WithDefaults()
				if err == nil || !strings.HasPrefix(err.Error(), "spec: "+key) || !strings.Contains(err.Error(), want+" does not read it") {
					t.Errorf("kind %q pattern %q with %s set: err %v, want a refusal naming %s and %s", k.name, p, key, err, key, want)
				}
			}
		}
	}
}

// TestSpecOptionsMatchesDefaultOptions pins that the Spec path compiles
// to exactly the Options the imperative path has always produced — the
// hinge of the cmds' byte-identical guarantee.
func TestSpecOptionsMatchesDefaultOptions(t *testing.T) {
	for _, p := range []string{"arppath", "stp", "learning"} {
		s, err := (Spec{Seed: 3, Protocol: ProtocolSpec{Name: p}}).WithDefaults()
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Options()
		if err != nil {
			t.Fatal(err)
		}
		want := topo.DefaultOptions(topo.Protocol(p), 3)
		if got.Protocol != want.Protocol || got.Seed != want.Seed ||
			got.Link != want.Link || got.WarmUp != want.WarmUp {
			t.Fatalf("%s: spec options %+v, imperative %+v", p, got, want)
		}
		// Config values (behind the pointers) must agree too.
		switch p {
		case "arppath":
			if *got.ProtocolConfig.(*core.Config) != *want.ProtocolConfig.(*core.Config) {
				t.Fatalf("%s: config mismatch", p)
			}
		}
	}

	// The extension plumbs through: a proxy-enabled spec builds
	// proxy-enabled options, with the rest defaulted field-wise.
	s, err := (Spec{Protocol: ProtocolSpec{Name: "arppath", Config: json.RawMessage(`{"proxy":true}`)}}).WithDefaults()
	if err != nil {
		t.Fatal(err)
	}
	opts, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	cfg := opts.ProtocolConfig.(*core.Config)
	if !cfg.Proxy || cfg.LockTimeout != core.DefaultConfig().LockTimeout {
		t.Fatalf("extension not plumbed/defaulted: %+v", cfg)
	}
}

// FuzzDecodeSpec fuzzes the strict decoder and the defaulting fixed
// point: any input that decodes and defaults must re-encode stably.
func FuzzDecodeSpec(f *testing.F) {
	for _, s := range specSamples() {
		if d, err := s.WithDefaults(); err == nil {
			if e, err := d.Encode(); err == nil {
				f.Add(e)
			}
		}
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"workload":{"kind":"sweep"},"scenario":{"faults":["all"]}}`))
	f.Add([]byte(`{"protocol":{"name":"stp","config":{"hello":"-1s"}},"link":{"rate_bps":-5},"warm_up":"-1s"}`))
	f.Add([]byte(`{"protocol":{"name":"tcppath","config":{"conn_capacity":4,"conn_policy":"clock"}},"link":{"queue_bytes":1}}`))
	f.Add([]byte(`{"topology":{"family":"random-regular","n":7,"degree":2}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSpec(data)
		if err != nil {
			return
		}
		d1, err := s.WithDefaults()
		if err != nil {
			return
		}
		e1, err := d1.Encode()
		if err != nil {
			t.Fatalf("defaulted spec failed to encode: %v", err)
		}
		s2, err := DecodeSpec(e1)
		if err != nil {
			t.Fatalf("canonical encoding failed to re-decode: %v\n%s", err, e1)
		}
		d2, err := s2.WithDefaults()
		if err != nil {
			t.Fatalf("canonical encoding failed to re-default: %v\n%s", err, e1)
		}
		e2, err := d2.Encode()
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if !bytes.Equal(e1, e2) {
			t.Fatalf("not a fixed point:\n--- first\n%s\n--- second\n%s", e1, e2)
		}
		// What WithDefaults accepts must build: for a kind that runs on
		// the Spec's fabric (the others leave topology, protocol and link
		// unset and build their own), the options compile and one bridge
		// of the protocol comes up on a link without a panic — and so does
		// the spec's own topology, when it is small enough to build on
		// every fuzz iteration (an unknown family is BuildTopology's error
		// to return).
		if d1.Topology.Family == "" {
			return
		}
		opts, err := d1.Options()
		if err != nil {
			t.Fatalf("defaulted spec failed to compile: %v\n%s", err, e1)
		}
		opts.Shards, opts.WarmUp = 1, time.Nanosecond
		topo.Line(opts, 1)
		tp := d1.Topology
		if max(tp.N, tp.Rows, tp.Cols, tp.Rings, tp.RingSize, tp.Degree, tp.ExtraEdges) <= 16 {
			BuildTopology(opts, tp)
		}
	})
}
