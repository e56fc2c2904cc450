package fabric

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/experiments"
	"repro/internal/host/app"
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
	// (ping, stream, allpairs, matrix) and for fabricserve. The experiment
	// workloads build their own fabrics, as the paper's figures prescribe.
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
//     Spec's topology
//   - "matrix" — a spec-level traffic matrix on the Spec's topology:
//     seeded flow arrivals following the hotspot, permutation or
//     weighted-pairs pattern, driven as TCP-lite transfers for any
//     registered protocol
//   - "figure2-demo" — the paper's Figure 2 ARP-Path vs STP latency demo
//   - "path-repair" — Figure 3, streaming under successive link failures
//   - "properties", "load", "proxy", "repair", "lockwindow",
//     "tablesize", "scale", "allpath", "tables", "all" — the
//     evaluation tables; "allpath" is the Flow-Path/TCP-Path
//     comparative experiment over the same matrices, "tables" the
//     eviction-pressure capacity sweep
//   - "sweep" — the adversarial scenario sweep
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
	if s.Topology.Family != "" || topologyKinds[s.Workload.Kind] {
		if s.Topology, err = s.Topology.WithDefaults(); err != nil {
			return Spec{}, err
		}
	}

	s.Workload = s.Workload.withDefaults()
	// scale and allpath build a degree-3 random-regular fabric of this size.
	if k, b := s.Workload.Kind, s.Workload.Bridges; (k == "scale" || k == "allpath") && (b < 4 || b%2 != 0) {
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
		// The phase timing and probe counts default as a scenario does.
		d := scenario.Config{
			FaultPhase: sc.FaultPhase.D(), Quiesce: sc.Quiesce.D(),
			VerifyPairs: s.Verify.Pairs, VerifyPings: s.Verify.Pings,
		}.WithDefaults()
		sc.FaultPhase, sc.Quiesce = Duration(d.FaultPhase), Duration(d.Quiesce)
		s.Verify.Pairs, s.Verify.Pings = d.VerifyPairs, d.VerifyPings
		s.Scenario = &sc
	}
	return s, nil
}

// topologyKinds are the workload kinds that build the Spec's topology;
// no kind at all is fabricserve's, which serves it.
var topologyKinds = map[string]bool{"": true, "ping": true, "stream": true, "allpairs": true, "matrix": true}

// BuildTopology builds the Spec's (defaulted) topology with its family's builder.
func BuildTopology(opts Options, t TopologySpec) (*Built, error) { return topo.Build(opts, t) }

// withDefaults fills the workload's unset knobs from the defaults of the
// experiment or application that runs it, so each value is stated once.
func (w WorkloadSpec) withDefaults() WorkloadSpec {
	switch w.Kind {
	case "ping", "figure2-demo":
		d := experiments.DefaultFigure2Config()
		if w.Pings == 0 {
			w.Pings = d.Pings
		}
		if w.Interval == 0 {
			w.Interval = Duration(d.Interval)
		}
	case "stream":
		if w.StreamSize == 0 {
			w.StreamSize = app.DefaultStreamConfig().Size
		}
	case "path-repair":
		d := experiments.DefaultFigure3Config()
		if w.StreamSize == 0 {
			w.StreamSize = d.StreamSize
		}
		if w.Failures == 0 {
			w.Failures = len(d.FailureTimes)
		}
		if w.WithSTP == nil {
			t := true
			w.WithSTP = &t
		}
	case "scale":
		if w.Bridges == 0 {
			w.Bridges = experiments.DefaultScaleConfig(0, 1).Bridges
		}
	case "matrix":
		m := experiments.MatrixConfig{
			Pattern: experiments.MatrixPattern(w.Pattern), Hotspots: w.Hotspots,
			Skew: w.Skew, Bytes: w.FlowBytes, Arrival: w.Arrival.D(),
		}.WithDefaults()
		w.Pattern, w.Hotspots, w.Skew = string(m.Pattern), m.Hotspots, m.Skew
		w.FlowBytes, w.Arrival = m.Bytes, Duration(m.Arrival)
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
			w.Conversations = experiments.DefaultTablesConfig(0, 0).Conversations
		}
	}
	return w
}

func (sc ScenarioSpec) withDefaults() (ScenarioSpec, error) {
	var err error
	if sc.Topologies, err = families("topology", sc.Topologies, topo.Families(true)); err != nil {
		return sc, err
	}
	if sc.Faults, err = families("fault", sc.Faults, scenario.FaultFamilies()); err != nil {
		return sc, err
	}
	if sc.Seeds == 0 {
		sc.Seeds = 16
	}
	if sc.Shrink == nil {
		t := true
		sc.Shrink = &t
	}
	return sc, nil
}

// families expands an absent or ["all"] family list to every known
// family, and otherwise rejects any name it does not know.
func families[F ~string](kind string, names []string, known []F) ([]string, error) {
	all := make([]string, len(known))
	for i, f := range known {
		all[i] = string(f)
	}
	if len(names) == 0 || (len(names) == 1 && names[0] == "all") {
		return all, nil
	}
	for _, n := range names {
		if !slices.Contains(all, n) {
			return nil, fmt.Errorf("spec: unknown %s family %q (known: %s)", kind, n, strings.Join(all, ", "))
		}
	}
	return names, nil
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
