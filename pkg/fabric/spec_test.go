package fabric

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/topo"
)

// specSamples are the shapes the cmds compile their flags into, plus
// a fully spelled-out custom one.
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
// → encode → decode → defaults → encode reproduces the same bytes.
func TestSpecRoundTripFixedPoint(t *testing.T) {
	for _, s := range specSamples() {
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
	}
	for _, c := range cases {
		if _, err := DecodeSpec([]byte(c.doc)); err == nil {
			t.Errorf("%s: decoded without error: %s", c.name, c.doc)
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
		{`{"protocol":{"name":"arppath","config":{"repair_buffer":-3}}}`, "repair_buffer"},
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
// preconditions: for every in-tree family, each size a builder panics on
// is a spec: error naming the field, and the smallest size it accepts
// builds. scale and allpath size their own random-regular fabric from
// workload.bridges, under the same rule.
func TestSpecSizeRules(t *testing.T) {
	type bad struct {
		t    TopologySpec
		want string // the field the error must name
	}
	cases := map[string]struct {
		good TopologySpec
		bad  []bad
	}{
		"figure1": {},
		"figure2": {TopologySpec{Profile: "uniform"}, []bad{{TopologySpec{Profile: "bogus"}, "topology.profile"}}},
		"line":    {TopologySpec{N: 1}, []bad{{TopologySpec{N: -1}, "topology.n"}}},
		"ring":    {TopologySpec{N: 3}, []bad{{TopologySpec{N: 2}, "topology.n"}, {TopologySpec{N: -3}, "topology.n"}}},
		"grid": {TopologySpec{Rows: 2}, []bad{
			{TopologySpec{Rows: 1}, "topology.rows/cols"}, {TopologySpec{N: 3, Cols: 1}, "topology.rows/cols"},
			{TopologySpec{N: -2}, "topology.rows/cols"}}},
		"fattree": {TopologySpec{N: 2}, []bad{{TopologySpec{N: 3}, "topology.n"}, {TopologySpec{N: -2}, "topology.n"}}},
		"random":  {TopologySpec{N: 2}, []bad{{TopologySpec{N: 1}, "topology.n"}}},
		"erdos-renyi": {TopologySpec{N: 2, P: 1}, []bad{
			{TopologySpec{N: 1}, "topology.n"}, {TopologySpec{P: 1.5}, "topology.p"}, {TopologySpec{P: -0.1}, "topology.p"}}},
		"ring-of-rings": {TopologySpec{Rings: 2, RingSize: 3}, []bad{
			{TopologySpec{Rings: 1}, "topology.rings"}, {TopologySpec{RingSize: 2}, "topology.ring_size"}}},
		"random-regular": {TopologySpec{N: 4, Degree: 2}, []bad{
			{TopologySpec{N: 7}, "topology.n"}, {TopologySpec{N: 2}, "topology.n"},
			{TopologySpec{N: 4, Degree: 4}, "topology.degree"}, {TopologySpec{Degree: 1}, "topology.degree"}}},
	}
	for _, family := range TopologyFamilies() {
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

// TestSpecUnknownNamesRejected covers workload-kind, protocol,
// topology-family and fault family validation.
func TestSpecUnknownNamesRejected(t *testing.T) {
	// forward is no workload: bench/perf's pump_forward is that pump's
	// one timer.
	var out bytes.Buffer
	if _, err := (&Runner{Spec: Spec{Workload: WorkloadSpec{Kind: "forward"}}, Out: &out}).Run(); err == nil ||
		!strings.Contains(err.Error(), "unknown workload kind") {
		t.Errorf("forward workload: err %v, want an unknown workload kind", err)
	}
	if _, err := (Spec{Protocol: ProtocolSpec{Name: "flow-path"}}).WithDefaults(); err == nil {
		t.Error("unknown protocol accepted")
	}
	bad := Spec{Workload: WorkloadSpec{Kind: "sweep"}, Scenario: &ScenarioSpec{Topologies: []string{"torus"}}}
	if _, err := bad.WithDefaults(); err == nil {
		t.Error("unknown sweep topology family accepted")
	}
	bad = Spec{Workload: WorkloadSpec{Kind: "sweep"}, Scenario: &ScenarioSpec{Faults: []string{"meteor-strike"}}}
	if _, err := bad.WithDefaults(); err == nil {
		t.Error("unknown fault family accepted")
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
		// What WithDefaults accepts must build: the options compile and
		// one bridge of the protocol comes up on a link without a panic —
		// and so does the spec's own topology, when it is small enough to
		// build on every fuzz iteration (an unregistered family is
		// BuildTopology's error to return).
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
