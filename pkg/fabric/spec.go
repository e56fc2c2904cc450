package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/topo"
)

// SpecVersion is the current Spec schema version. Decoding rejects specs
// from a newer schema; older (or absent) versions upgrade implicitly as
// long as the fields still decode.
const SpecVersion = 1

// Spec declaratively and fully determines a run: what fabric to build,
// which protocol bridges it, what workload to drive and what to verify.
// Every field has an explicit default (WithDefaults); decoding is strict
// (unknown fields are rejected, so a typo fails loudly instead of
// silently running the default experiment).
type Spec struct {
	// Version is the schema version (SpecVersion when omitted).
	Version int `json:"version,omitempty"`
	// Seed fully determines wiring, delays and race outcomes. 0 means
	// the default seed 1 — a JSON spec cannot distinguish absent from
	// zero, so seed 0 itself is not addressable.
	Seed int64 `json:"seed,omitempty"`
	// Topology selects the fabric for the topology-driven workloads
	// (ping, stream, allpairs). The experiment workloads build their own
	// fabrics, as the paper's figures prescribe.
	Topology TopologySpec `json:"topology,omitzero"`
	// Protocol selects the bridging protocol by registry name, with an
	// optional per-protocol config extension.
	Protocol ProtocolSpec `json:"protocol,omitzero"`
	// Link is the default link configuration.
	Link LinkSpec `json:"link,omitzero"`
	// WarmUp is how long the fabric runs before the workload (0 = the
	// protocol's registered convergence budget; WithDefaults fills it).
	WarmUp Duration `json:"warm_up,omitempty"`
	// Shards runs the simulation on that many engine shards.
	// Every figure, table and fingerprint is bit-identical at any value.
	Shards int `json:"shards,omitempty"`
	// Workload selects what runs on the fabric.
	Workload WorkloadSpec `json:"workload,omitzero"`
	// Scenario parameterizes the adversarial sweep (kind "sweep"): the
	// fault-schedule families, seeds per pairing and phase timing.
	Scenario *ScenarioSpec `json:"scenario,omitempty"`
	// Verify holds the verification knobs: probe counts for the sweep's
	// eventual-delivery invariant, and the trace fingerprint switch.
	Verify VerifySpec `json:"verify,omitzero"`
}

// TopologySpec names a topology family and its size parameters. Unused
// parameters are ignored by the family; grid reads Rows/Cols falling back
// to N×N, random falls back to N extra edges.
type TopologySpec struct {
	// Family: figure1, figure2, line, ring, grid, fattree, random,
	// erdos-renyi, ring-of-rings, random-regular (RegisterTopology adds
	// more).
	Family string `json:"family,omitempty"`
	// N is the generic size: bridges (line, ring, random, erdos-renyi,
	// random-regular), fat-tree k, grid side.
	N int `json:"n,omitempty"`
	// Rows/Cols size a grid explicitly.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Rings/RingSize size a ring-of-rings.
	Rings    int `json:"rings,omitempty"`
	RingSize int `json:"ring_size,omitempty"`
	// Degree is the random-regular trunk degree.
	Degree int `json:"degree,omitempty"`
	// ExtraEdges is the random family's loop budget (N when omitted).
	ExtraEdges int `json:"extra_edges,omitempty"`
	// P is the Erdős–Rényi edge probability.
	P float64 `json:"p,omitempty"`
	// Profile is the figure2 link-delay profile: uniform, slow-diagonal
	// or asymmetric.
	Profile string `json:"profile,omitempty"`
	// SpareJacks pre-cables every host of the host-per-bridge families
	// with a second, initially-down access link on another edge bridge —
	// the wall jack host-mobility ops re-home stations to. Without it a
	// fabric has no legal host-move targets (fabricserve rejects those
	// ops); builds without mobility leave it off, and the flag changes
	// nothing else about the fabric.
	SpareJacks bool `json:"spare_jacks,omitempty"`
}

// ProtocolSpec selects a registered protocol and carries its config as a
// typed JSON extension, decoded by the registry into the protocol's
// registered config struct.
type ProtocolSpec struct {
	Name string `json:"name,omitempty"`
	// Config is the per-protocol extension, e.g. for arppath:
	// {"lock_timeout":"200ms","proxy":true}. Unknown fields are rejected.
	Config json.RawMessage `json:"config,omitempty"`
}

// LinkSpec is the default link configuration.
type LinkSpec struct {
	// RateBps is the line rate in bits per second.
	RateBps int64 `json:"rate_bps,omitempty"`
	// Delay is the one-way propagation delay.
	Delay Duration `json:"delay,omitempty"`
	// QueueBytes is the per-direction output queue capacity.
	QueueBytes int `json:"queue_bytes,omitempty"`
}

// WorkloadSpec selects what runs on the fabric. Kinds:
//
//   - "ping", "stream", "allpairs" — the simulator workloads on the
//     Spec's topology (arppath-sim)
//   - "matrix" — a spec-level traffic matrix on the Spec's topology:
//     seeded flow arrivals following the hotspot, permutation or
//     weighted-pairs pattern, driven as TCP-lite transfers for any
//     registered protocol
//   - "figure2-demo" — the paper's Figure 2 ARP-Path vs STP latency demo
//   - "path-repair" — Figure 3, streaming under successive link failures
//   - "properties", "load", "proxy", "repair", "lockwindow",
//     "tablesize", "scale", "allpath", "tables", "all" — the
//     evaluation tables (fabricbench); "allpath" is the Flow-Path/
//     TCP-Path comparative experiment over the same matrices, "tables"
//     the eviction-pressure capacity sweep
//   - "sweep" — the adversarial scenario sweep (scenario)
type WorkloadSpec struct {
	Kind string `json:"kind,omitempty"`
	// Pings/Interval drive ping-train workloads (ping, figure2-demo).
	Pings    int      `json:"pings,omitempty"`
	Interval Duration `json:"interval,omitempty"`
	// StreamSize is the transfer size for stream and path-repair.
	StreamSize int `json:"stream_size,omitempty"`
	// Failures is how many successive link failures path-repair injects.
	Failures int `json:"failures,omitempty"`
	// WithSTP adds the STP baseline run to path-repair (default true).
	WithSTP *bool `json:"with_stp,omitempty"`
	// FastSTP gives the baseline the fastest legal STP timers.
	FastSTP bool `json:"fast_stp,omitempty"`
	// Bridges sizes the scale and allpath experiments' fabrics.
	Bridges int `json:"bridges,omitempty"`

	// Pattern selects the traffic matrix of the matrix workload and the
	// allpath experiment: hotspot, permutation or pairs.
	Pattern string `json:"pattern,omitempty"`
	// Flows is the matrix flow count (0 = one per host).
	Flows int `json:"flows,omitempty"`
	// Hotspots is the hotspot pattern's hot-destination count.
	Hotspots int `json:"hotspots,omitempty"`
	// Skew is the pairs pattern's Zipf exponent.
	Skew float64 `json:"skew,omitempty"`
	// FlowBytes is the per-flow transfer size.
	FlowBytes int `json:"flow_bytes,omitempty"`
	// Arrival is the mean spacing of the seeded flow arrival schedule.
	Arrival Duration `json:"arrival,omitempty"`
	// Conversations is the tables experiment's distinct host-conversation
	// count (synthetic edge-host multiplexing; 0 = 100k).
	Conversations int `json:"conversations,omitempty"`
}

// ScenarioSpec parameterizes the adversarial sweep. The protocol under
// test comes from Spec.Protocol — arppath (optionally with the proxy
// enabled in its config extension), flowpath or tcppath; any other
// config tuning is rejected, the sweep builds its fabrics with the
// defaults — and the probe counts from Spec.Verify. Spec.Link and
// Spec.WarmUp do not apply: each scenario draws its own links and
// warm-up from its seed.
type ScenarioSpec struct {
	// Topologies and Faults list family names, or ["all"] (the default;
	// WithDefaults expands it).
	Topologies []string `json:"topologies,omitempty"`
	Faults     []string `json:"faults,omitempty"`
	// Seeds is how many consecutive seeds run per (topology, faults)
	// pairing, starting at Spec.Seed.
	Seeds int `json:"seeds,omitempty"`
	// Big selects the larger topology tier.
	Big bool `json:"big,omitempty"`
	// Shrink minimizes failing fault schedules (default true).
	Shrink *bool `json:"shrink,omitempty"`
	// FaultPhase/Quiesce override the scenario phase timing.
	FaultPhase Duration `json:"fault_phase,omitempty"`
	Quiesce    Duration `json:"quiesce,omitempty"`
}

// VerifySpec holds the verification knobs.
type VerifySpec struct {
	// Fingerprint folds every tap event of every fabric the run builds
	// into a digest and emits it after the workload: same Spec ⇒ same
	// fingerprint, at any shard count and on any machine.
	Fingerprint bool `json:"fingerprint,omitempty"`
	// Pairs/Pings size the sweep's post-quiescence delivery probes.
	Pairs int `json:"pairs,omitempty"`
	Pings int `json:"pings,omitempty"`
}

// DecodeSpec parses a Spec strictly: unknown fields anywhere in the
// document (including per-protocol config extensions, which are checked
// by WithDefaults) are errors.
func DecodeSpec(data []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if dec.More() {
		return Spec{}, fmt.Errorf("spec: trailing data after JSON document")
	}
	if s.Version > SpecVersion {
		return Spec{}, fmt.Errorf("spec: version %d is newer than this build's %d", s.Version, SpecVersion)
	}
	return s, nil
}

// LoadSpec reads and strictly decodes a spec file.
func LoadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	s, err := DecodeSpec(data)
	if err != nil {
		return Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Encode renders the Spec as canonical indented JSON with a trailing
// newline. decode → WithDefaults → Encode → decode → WithDefaults is a
// fixed point (the codec round-trip test pins it).
func (s Spec) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WithDefaults returns the Spec with every unset field filled explicitly,
// validating as it goes: the protocol must be registered (its config
// extension is decoded strictly, defaulted field-wise and re-encoded
// canonically), the scenario families must exist, and the version must be
// current. The result fully spells out the run a bare Spec implies.
func (s Spec) WithDefaults() (Spec, error) {
	if s.Version == 0 {
		s.Version = SpecVersion
	}
	if s.Version != SpecVersion {
		return Spec{}, fmt.Errorf("spec: unsupported version %d", s.Version)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Shards < 1 {
		s.Shards = 1
	}
	// Sizes, counts and time spans are zero ("use the default") or
	// positive; a negative one would reach a make() or a timer as a panic.
	w := s.Workload
	for _, f := range []struct {
		key string
		v   int64
	}{
		{"link.rate_bps", s.Link.RateBps}, {"link.delay", int64(s.Link.Delay)},
		{"link.queue_bytes", int64(s.Link.QueueBytes)}, {"warm_up", int64(s.WarmUp)},
		{"workload.pings", int64(w.Pings)}, {"workload.interval", int64(w.Interval)},
		{"workload.stream_size", int64(w.StreamSize)}, {"workload.failures", int64(w.Failures)},
		{"workload.bridges", int64(w.Bridges)}, {"workload.flows", int64(w.Flows)},
		{"workload.hotspots", int64(w.Hotspots)}, {"workload.flow_bytes", int64(w.FlowBytes)},
		{"workload.arrival", int64(w.Arrival)}, {"workload.conversations", int64(w.Conversations)},
	} {
		if f.v < 0 {
			return Spec{}, fmt.Errorf("spec: %s must not be negative", f.key)
		}
	}

	// Protocol: resolve, decode the extension, default field-wise,
	// re-encode canonically.
	if s.Protocol.Name == "" {
		s.Protocol.Name = string(topo.ARPPath)
	}
	def, cfg, err := topo.DecodeProtocol(topo.Protocol(s.Protocol.Name), s.Protocol.Config)
	if err != nil {
		return Spec{}, fmt.Errorf("spec: %w", err)
	}
	if s.Protocol.Config, err = def.Encode(cfg); err != nil {
		return Spec{}, fmt.Errorf("spec: protocol %q config: %w", s.Protocol.Name, err)
	}

	// Link, warm-up.
	d := netsim.DefaultLinkConfig()
	if s.Link.RateBps == 0 {
		s.Link.RateBps = d.Rate
	}
	if s.Link.Delay == 0 {
		s.Link.Delay = Duration(d.Delay)
	}
	if s.Link.QueueBytes == 0 {
		s.Link.QueueBytes = d.Queue
	}
	if s.WarmUp == 0 {
		s.WarmUp = Duration(def.WarmUp(cfg))
	}

	// Topology defaults, only where a family is in play.
	if s.Topology.Family == "" && topologyKinds[s.Workload.Kind] {
		s.Topology.Family = "figure2"
	}
	if s.Topology.Family != "" {
		s.Topology = s.Topology.withDefaults()
		if err := s.Topology.check(); err != nil {
			return Spec{}, err
		}
	}

	s.Workload = s.Workload.withDefaults()
	// scale and allpath build a degree-3 random-regular fabric of this size.
	if k := s.Workload.Kind; (k == "scale" || k == "allpath") && !evenAtLeast(s.Workload.Bridges, 4) {
		return Spec{}, fmt.Errorf("spec: workload.bridges: %s needs an even count ≥ 4, got %d", k, s.Workload.Bridges)
	}

	if s.Workload.Kind == "sweep" {
		sc := ScenarioSpec{}
		if s.Scenario != nil {
			sc = *s.Scenario
		}
		sc, err := sc.withDefaults()
		if err != nil {
			return Spec{}, err
		}
		s.Scenario = &sc
		if s.Verify.Pairs == 0 {
			s.Verify.Pairs = 4
		}
		if s.Verify.Pings == 0 {
			s.Verify.Pings = 3
		}
	}
	return s, nil
}

// SetOption merges one key into the protocol's JSON config extension,
// preserving whatever else the extension already carries. Cmds use it to
// fold a flag (-proxy) into a possibly spec-loaded config without
// clobbering the rest.
func (p *ProtocolSpec) SetOption(key string, value any) error {
	m := map[string]any{}
	if len(p.Config) > 0 {
		if err := json.Unmarshal(p.Config, &m); err != nil {
			return fmt.Errorf("protocol config: %w", err)
		}
	}
	m[key] = value
	raw, err := json.Marshal(m)
	if err != nil {
		return err
	}
	p.Config = raw
	return nil
}

// topologyKinds are the workload kinds that build the Spec's topology.
var topologyKinds = map[string]bool{"ping": true, "stream": true, "allpairs": true, "matrix": true}

func (t TopologySpec) withDefaults() TopologySpec {
	switch t.Family {
	case "figure2":
		if t.Profile == "" {
			t.Profile = string(topo.ProfileSlowDiagonal)
		}
	case "line", "ring", "fattree", "random", "erdos-renyi", "random-regular":
		if t.N == 0 {
			t.N = 4
		}
	case "grid":
		if t.N == 0 && t.Rows == 0 {
			t.N = 4
		}
	case "ring-of-rings":
		if t.Rings == 0 {
			t.Rings = 3
		}
		if t.RingSize == 0 {
			t.RingSize = 4
		}
	}
	switch t.Family {
	case "random-regular":
		if t.Degree == 0 {
			t.Degree = 3
		}
	case "erdos-renyi":
		if t.P == 0 {
			t.P = 0.2
		}
	}
	return t
}

func evenAtLeast(v, min int) bool { return v >= min && v%2 == 0 }

// gridDims resolves a grid's side lengths: Rows falls back to N, Cols to
// Rows.
func (t TopologySpec) gridDims() (rows, cols int) {
	rows, cols = t.Rows, t.Cols
	if rows == 0 {
		rows = t.N
	}
	if cols == 0 {
		cols = rows
	}
	return rows, cols
}

// check rejects, for each in-tree family, every size its builder would
// panic on: a spec file, a flag or a replay-log header is outside input.
// It runs on the defaulted TopologySpec. A family registered from
// outside the tree vets its own parameters in its builder.
func (t TopologySpec) check() error {
	bad := func(field, rule string, got any) error {
		return fmt.Errorf("spec: topology.%s: %s needs %s, got %v", field, t.Family, rule, got)
	}
	switch t.Family {
	case "figure2":
		switch topo.Figure2Profile(t.Profile) {
		case topo.ProfileUniform, topo.ProfileSlowDiagonal, topo.ProfileAsymmetric:
		default:
			return bad("profile", "uniform, slow-diagonal or asymmetric", strconv.Quote(t.Profile))
		}
	case "line":
		if t.N < 1 {
			return bad("n", "at least 1 bridge", t.N)
		}
	case "ring":
		if t.N < 3 {
			return bad("n", "at least 3 bridges", t.N)
		}
	case "grid":
		if rows, cols := t.gridDims(); rows < 2 || cols < 2 {
			return bad("rows/cols", "at least 2x2 (rows defaults to n, cols to rows)", fmt.Sprintf("%dx%d", rows, cols))
		}
	case "fattree":
		if !evenAtLeast(t.N, 2) {
			return bad("n", "an even k ≥ 2", t.N)
		}
	case "random":
		if t.N < 2 {
			return bad("n", "at least 2 bridges", t.N)
		}
	case "erdos-renyi":
		if t.N < 2 {
			return bad("n", "at least 2 bridges", t.N)
		}
		if t.P < 0 || t.P > 1 {
			return bad("p", "a probability in [0, 1]", t.P)
		}
	case "ring-of-rings":
		if t.Rings < 2 {
			return bad("rings", "at least 2 rings", t.Rings)
		}
		if t.RingSize < 3 {
			return bad("ring_size", "at least 3 bridges per ring", t.RingSize)
		}
	case "random-regular":
		if !evenAtLeast(t.N, 4) {
			return bad("n", "an even n ≥ 4", t.N)
		}
		if t.Degree < 2 || t.Degree >= t.N {
			return bad("degree", "a degree in [2, n)", t.Degree)
		}
	}
	return nil
}

func (w WorkloadSpec) withDefaults() WorkloadSpec {
	switch w.Kind {
	case "ping", "figure2-demo":
		if w.Pings == 0 {
			w.Pings = 20
		}
		if w.Interval == 0 {
			w.Interval = Duration(100 * time.Millisecond)
		}
	case "stream":
		if w.StreamSize == 0 {
			w.StreamSize = defaultStreamSize()
		}
	case "path-repair":
		if w.StreamSize == 0 {
			w.StreamSize = 32 << 20
		}
		if w.Failures == 0 {
			w.Failures = 2
		}
		if w.WithSTP == nil {
			t := true
			w.WithSTP = &t
		}
	case "scale":
		if w.Bridges == 0 {
			w.Bridges = 256
		}
	case "matrix":
		if w.Pattern == "" {
			w.Pattern = "hotspot"
		}
		if w.Hotspots == 0 {
			w.Hotspots = 2
		}
		if w.Skew == 0 {
			w.Skew = 1.5
		}
		if w.FlowBytes == 0 {
			w.FlowBytes = 256 << 10
		}
		if w.Arrival == 0 {
			w.Arrival = Duration(time.Millisecond)
		}
	case "allpath":
		// The comparative experiment sweeps every pattern itself; only
		// the fabric and flow-count knobs apply.
		if w.Bridges == 0 {
			w.Bridges = 24
		}
		if w.Flows == 0 {
			w.Flows = 24
		}
	case "tables":
		// The eviction-pressure experiment sweeps capacities itself; the
		// knob is how many distinct conversations churn the tables.
		if w.Conversations == 0 {
			w.Conversations = 100_000
		}
	}
	return w
}

func (sc ScenarioSpec) withDefaults() (ScenarioSpec, error) {
	all := func(names []string) bool {
		return len(names) == 0 || (len(names) == 1 && names[0] == "all")
	}
	if all(sc.Topologies) {
		sc.Topologies = nil
		for _, f := range scenario.TopologyFamilies() {
			sc.Topologies = append(sc.Topologies, string(f))
		}
	} else {
		known := make(map[string]bool)
		for _, f := range scenario.TopologyFamilies() {
			known[string(f)] = true
		}
		for _, f := range sc.Topologies {
			if !known[f] {
				return sc, fmt.Errorf("spec: unknown topology family %q", f)
			}
		}
	}
	if all(sc.Faults) {
		sc.Faults = nil
		for _, f := range scenario.FaultFamilies() {
			sc.Faults = append(sc.Faults, string(f))
		}
	} else {
		known := make(map[string]bool)
		for _, f := range scenario.FaultFamilies() {
			known[string(f)] = true
		}
		for _, f := range sc.Faults {
			if !known[f] {
				return sc, fmt.Errorf("spec: unknown fault family %q", f)
			}
		}
	}
	if sc.Seeds == 0 {
		sc.Seeds = 16
	}
	if sc.Shrink == nil {
		t := true
		sc.Shrink = &t
	}
	if sc.FaultPhase == 0 {
		sc.FaultPhase = Duration(400 * time.Millisecond)
	}
	if sc.Quiesce == 0 {
		sc.Quiesce = Duration(700 * time.Millisecond)
	}
	return sc, nil
}

// Options compiles the Spec's build half into the imperative form the
// topology builder consumes. The Spec must already be defaulted.
func (s Spec) Options() (topo.Options, error) {
	_, cfg, err := topo.DecodeProtocol(topo.Protocol(s.Protocol.Name), s.Protocol.Config)
	if err != nil {
		return topo.Options{}, fmt.Errorf("spec: %w", err)
	}
	return topo.Options{
		Protocol:       topo.Protocol(s.Protocol.Name),
		ProtocolConfig: cfg,
		Seed:           s.Seed,
		Link: netsim.LinkConfig{
			Rate:  s.Link.RateBps,
			Delay: s.Link.Delay.D(),
			Queue: s.Link.QueueBytes,
		},
		WarmUp:     s.WarmUp.D(),
		Shards:     s.Shards,
		SpareJacks: s.Topology.SpareJacks,
	}, nil
}
