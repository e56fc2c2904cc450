package fabric

import (
	"cmp"
	"fmt"
	"io"
	"strings"

	"repro/internal/experiments"
	"repro/internal/host/app"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// kind is one row of the kind table: everything the tree knows about one
// workload kind. keys are the Spec keys it reads besides everyKind's;
// WithDefaults refuses any other set key and fills only these. defaults
// and check (either may be nil) fill the kind's own keys and refuse,
// naming the key, what run cannot run; "" has no run. benchJSON marks the
// run that sets Result.BenchJSON; scenarios the run that folds its
// scenarios' own fingerprints, so Run taps none of its fabrics.
type kind struct {
	name      string
	keys      []string
	defaults  func(*Spec)
	check     func(Spec) error
	run       func(r *Runner, spec Spec, out io.Writer, res *Result) error
	benchJSON bool
	scenarios bool
}

// everyKind are the keys every kind reads.
var everyKind = []string{"version", "seed", "shards", "workload.kind", "verify.fingerprint"}

// kinds is the kind table.
var kinds = []kind{
	{name: "", keys: onFabric()},
	{name: "ping", keys: onFabric("workload.pings", "workload.interval"), defaults: pingTrain, run: sim(runPing)},
	{name: "stream", keys: onFabric("workload.stream_size"), run: sim(runStream),
		defaults: func(s *Spec) { s.Workload.StreamSize = cmp.Or(s.Workload.StreamSize, app.DefaultStreamConfig().Size) }},
	{name: "allpairs", keys: onFabric(), run: sim(runAllPairs)},
	{name: "matrix", keys: onFabric("workload.pattern", "workload.flows", "workload.hotspots", "workload.skew",
		"workload.flow_bytes", "workload.arrival"),
		defaults: func(s *Spec) {
			w := &s.Workload
			m := experiments.MatrixConfig{
				Pattern: experiments.MatrixPattern(w.Pattern), Hotspots: w.Hotspots,
				Skew: w.Skew, Bytes: w.FlowBytes, Arrival: w.Arrival.D(),
			}.WithDefaults()
			w.Pattern, w.Hotspots, w.Skew = string(m.Pattern), m.Hotspots, m.Skew
			w.FlowBytes, w.Arrival = m.Bytes, Duration(m.Arrival)
		},
		check: func(s Spec) error {
			p := s.Workload.Pattern
			reads, ok := patternKeys[p]
			if !ok {
				return fmt.Errorf("spec: workload.pattern: matrix needs one of %v, got %q", experiments.MatrixPatterns(), p)
			}
			return topo.CheckKeys(s.Workload, "spec: workload.", fmt.Sprintf("matrix pattern %q", p), everyPattern, reads)
		},
		run: (*Runner).runMatrix},
	{name: "figure2-demo", keys: []string{"workload.pings", "workload.interval"}, defaults: pingTrain,
		run: (*Runner).runFigure2Demo},
	{name: "path-repair", keys: []string{"workload.stream_size", "workload.failures", "workload.with_stp", "workload.fast_stp"},
		defaults: func(s *Spec) {
			d, w := experiments.DefaultFigure3Config(), &s.Workload
			w.StreamSize = cmp.Or(w.StreamSize, d.StreamSize)
			w.Failures, w.WithSTP = cmp.Or(w.Failures, len(d.FailureTimes)), cmp.Or(w.WithSTP, yes())
		},
		run: (*Runner).runPathRepair},
	{name: "properties", run: emits(t1Properties)},
	{name: "load", run: emits(t2Load)},
	{name: "proxy", run: emits(t3Proxy)},
	{name: "repair", run: emits(t4Repair)},
	{name: "lockwindow", run: emits(t5LockWindow)},
	{name: "tablesize", run: emits(t6TableSize)},
	{name: "all", run: emits(t1Properties, t2Load, t3Proxy, t4Repair, t5LockWindow, t6TableSize)},
	{name: "scale", keys: []string{"workload.bridges"}, check: evenBridges, run: (*Runner).runScale,
		defaults: func(s *Spec) {
			s.Workload.Bridges = cmp.Or(s.Workload.Bridges, experiments.DefaultScaleConfig(0, 1).Bridges)
		}},
	// The comparative experiment sweeps every pattern itself; only the
	// fabric and flow-count knobs apply.
	{name: "allpath", keys: []string{"workload.bridges", "workload.flows"}, check: evenBridges, run: (*Runner).runAllPath,
		defaults: func(s *Spec) {
			s.Workload.Bridges, s.Workload.Flows = cmp.Or(s.Workload.Bridges, 24), cmp.Or(s.Workload.Flows, 24)
		}},
	// The eviction-pressure experiment sweeps capacities itself; the
	// knob is how many distinct conversations churn the tables.
	{name: "tables", keys: []string{"workload.conversations"}, run: (*Runner).runTables, benchJSON: true,
		defaults: func(s *Spec) {
			s.Workload.Conversations = cmp.Or(s.Workload.Conversations, experiments.DefaultTablesConfig(0, 0).Conversations)
		}},
	{name: "sweep", keys: []string{"protocol", "scenario", "verify.pairs", "verify.pings"},
		defaults: sweepDefaults, check: sweepCheck, run: (*Runner).runSweep, scenarios: true},
}

// patternKeys are the workload keys each matrix pattern reads besides
// everyPattern's: a permutation has one flow per host and no weights.
var patternKeys = map[string][]string{
	string(experiments.MatrixHotspot):     {"flows", "hotspots"},
	string(experiments.MatrixPermutation): nil,
	string(experiments.MatrixPairs):       {"flows", "skew"},
}

// everyPattern are the workload keys every matrix pattern reads.
var everyPattern = []string{"kind", "pattern", "flow_bytes", "arrival"}

// onFabric are the keys of a kind that runs on the Spec's fabric.
func onFabric(keys ...string) []string {
	return append([]string{"topology", "protocol", "link", "warm_up"}, keys...)
}

// pingTrain defaults a ping train's count and spacing as Figure 2 does.
func pingTrain(s *Spec) {
	d := experiments.DefaultFigure2Config()
	s.Workload.Pings = cmp.Or(s.Workload.Pings, d.Pings)
	s.Workload.Interval = cmp.Or(s.Workload.Interval, Duration(d.Interval))
}

// yes is a set boolean knob that defaults to true.
func yes() *bool { t := true; return &t }

// evenBridges is the size rule of the degree-3 random-regular fabric the
// scale and allpath experiments build.
func evenBridges(s Spec) error {
	if b := s.Workload.Bridges; b < 4 || b%2 != 0 {
		return fmt.Errorf("spec: workload.bridges: %s needs an even count ≥ 4, got %d", s.Workload.Kind, b)
	}
	return nil
}

// lookupKind is the kind table's row for name, or the spec: error listing
// the known kinds.
func lookupKind(name string) (*kind, error) {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i], nil
		}
	}
	var known []string
	for _, k := range kinds[1:] {
		known = append(known, k.name)
	}
	return nil, fmt.Errorf("spec: unknown workload kind %q (known: %s)", name, strings.Join(known, ", "))
}

// CheckBenchJSON refuses, before anything runs, a Spec whose run writes
// no JSON artifact (arppath-sim -bench-out).
func (s Spec) CheckBenchJSON() error {
	d, err := s.WithDefaults()
	if err != nil {
		return err
	}
	if k, _ := lookupKind(d.Workload.Kind); !k.benchJSON {
		return fmt.Errorf("workload kind %s has no JSON artifact (only tables does)", d.Workload.Kind)
	}
	return nil
}

// emits is the run of a kind that renders one table per function, in
// order, each from the Spec's seed.
func emits(tables ...func(seed int64) *metrics.Table) func(*Runner, Spec, io.Writer, *Result) error {
	return func(r *Runner, spec Spec, out io.Writer, res *Result) error {
		for _, t := range tables {
			r.emit(out, res, t(spec.Seed))
		}
		return nil
	}
}
