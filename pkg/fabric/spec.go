package fabric

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"repro/internal/netsim"
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

// WorkloadSpec selects what runs: the "workload" object of a spec file.
// Each kind is one row of the kind table (workload.go) and reads its own
// Spec keys besides version, seed, shards and verify.fingerprint, which
// every kind reads; WithDefaults refuses any other key that is set and
// fills only the keys the kind reads:
//
//	""            topology, protocol, link, warm_up (the fabric keys): no workload; fabricserve serves it
//	ping          the fabric keys; pings, interval
//	stream        the fabric keys; stream_size
//	allpairs      the fabric keys
//	matrix        the fabric keys; pattern, flow_bytes, arrival, and the pattern's own: hotspot flows, hotspots; pairs flows, skew; permutation none
//	figure1       —: Figure 1, the discovery race's locks and path
//	figure2-demo  pings, interval: Figure 2, ARP-Path vs STP latency
//	path-repair   stream_size, failures, with_stp, fast_stp: Figure 3, streaming across link failures
//	properties, load, proxy, repair, lockwindow, tablesize
//	              —: the evaluation tables T1–T6; all runs the six
//	scale         bridges (an even count ≥ 4): the sharded-engine scaling table
//	allpath       bridges (an even count ≥ 4), flows: Flow-Path / TCP-Path over every matrix pattern
//	tables        conversations: the eviction-pressure capacity sweep
//	sweep         protocol, scenario, verify.pairs, verify.pings: the adversarial scenario sweep
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
// defaults — and the probe counts from Spec.Verify. The sweep reads no
// Spec.Link or Spec.WarmUp: each scenario draws its own links and
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

// WithDefaults returns the Spec with every key its workload kind reads
// filled explicitly, or the spec: error refusing it: an unknown kind (the
// error lists the known ones), a set key the kind does not read (naming
// the key and the kind), a negative count or span, an unregistered
// protocol (its config extension is decoded strictly, defaulted
// field-wise and re-encoded canonically), or a value the kind's own check
// refuses. The result fully spells out the run a bare Spec implies.
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
	k, err := lookupKind(s.Workload.Kind)
	if err != nil {
		return Spec{}, err
	}
	if err := topo.CheckKeys(s, "spec: ", fmt.Sprintf("workload kind %q", k.name), everyKind, k.keys); err != nil {
		return Spec{}, err
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

	reads := func(key string) bool { return slices.Contains(k.keys, key) }
	if reads("protocol") { // resolve, decode, default field-wise, re-encode canonically
		s.Protocol.Name = cmp.Or(s.Protocol.Name, string(topo.ARPPath))
		def, cfg, err := topo.DecodeProtocol(topo.Protocol(s.Protocol.Name), s.Protocol.Config)
		if err != nil {
			return Spec{}, fmt.Errorf("spec: %w", err)
		}
		if s.Protocol.Config, err = def.Encode(cfg); err != nil {
			return Spec{}, fmt.Errorf("spec: protocol %q config: %w", s.Protocol.Name, err)
		}
		if reads("warm_up") && s.WarmUp == 0 {
			s.WarmUp = Duration(def.WarmUp(cfg))
		}
	}
	if reads("link") {
		d := netsim.DefaultLinkConfig()
		s.Link.RateBps = cmp.Or(s.Link.RateBps, d.Rate)
		s.Link.Delay = cmp.Or(s.Link.Delay, Duration(d.Delay))
		s.Link.QueueBytes = cmp.Or(s.Link.QueueBytes, d.Queue)
	}
	if reads("topology") {
		if s.Topology, err = s.Topology.WithDefaults(); err != nil {
			return Spec{}, err
		}
	}
	if k.defaults != nil {
		k.defaults(&s)
	}
	if k.check != nil {
		if err := k.check(s); err != nil {
			return Spec{}, err
		}
	}
	return s, nil
}

// BuildTopology builds the Spec's (defaulted) topology with its family's builder.
func BuildTopology(opts Options, t TopologySpec) (*Built, error) { return topo.Build(opts, t) }

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
