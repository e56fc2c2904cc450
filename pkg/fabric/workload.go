package fabric

import (
	"cmp"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/host/app"
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

// kinds is the kind table. init fills it, because the allpath run
// defaults its matrix Specs through it.
var kinds []kind

func init() {
	kinds = []kind{
		{name: "", keys: onFabric()},
		{name: "ping", keys: onFabric("workload.pings", "workload.interval"), defaults: pingTrain, run: sim(runPing)},
		{name: "stream", keys: onFabric("workload.stream_size"), run: sim(runStream),
			defaults: func(s *Spec) { s.Workload.StreamSize = cmp.Or(s.Workload.StreamSize, app.DefaultStreamConfig().Size) }},
		{name: "allpairs", keys: onFabric(), run: sim(runAllPairs)},
		{name: "matrix", keys: onFabric("workload.pattern", "workload.flows", "workload.hotspots", "workload.skew",
			"workload.flow_bytes", "workload.arrival"),
			defaults: matrixDefaults, check: matrixCheck, run: (*Runner).runMatrix},
		{name: "figure1", run: (*Runner).runFigure1},
		{name: "figure2-demo", keys: []string{"workload.pings", "workload.interval"}, defaults: pingTrain,
			run: (*Runner).runFigure2Demo},
		// Figure 3's demo: a clip long enough to survive two cuts.
		{name: "path-repair", keys: []string{"workload.stream_size", "workload.failures", "workload.with_stp", "workload.fast_stp"},
			defaults: func(s *Spec) {
				w := &s.Workload
				w.StreamSize, w.Failures, w.WithSTP = cmp.Or(w.StreamSize, 32<<20), cmp.Or(w.Failures, 2), cmp.Or(w.WithSTP, yes())
			},
			run: (*Runner).runPathRepair},
		{name: "properties", run: emits(t1)},
		{name: "load", run: emits(t2)},
		{name: "proxy", run: emits(t3)},
		{name: "repair", run: emits(t4)},
		{name: "lockwindow", run: emits(t5)},
		{name: "tablesize", run: emits(t6)},
		{name: "all", run: emits(t1, t2, t3, t4, t5, t6)},
		{name: "scale", keys: []string{"workload.bridges"}, check: evenBridges, run: (*Runner).runScale,
			defaults: func(s *Spec) {
				s.Workload.Bridges = cmp.Or(s.Workload.Bridges, experiments.DefaultScaleConfig().Bridges)
			}},
		// Nine matrix runs, every pattern over every All-Path protocol; only
		// the fabric size and the flow count apply.
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
}

// onFabric are the keys of a kind that runs on the Spec's fabric.
func onFabric(keys ...string) []string {
	return append([]string{"topology", "protocol", "link", "warm_up"}, keys...)
}

// pingTrain defaults a ping train as the Figure 2 demo ran it.
func pingTrain(s *Spec) {
	s.Workload.Pings = cmp.Or(s.Workload.Pings, 20)
	s.Workload.Interval = cmp.Or(s.Workload.Interval, Duration(100*time.Millisecond))
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
