package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
)

// tinyWorkloads are the six workloads' code paths at sizes that finish in
// a fraction of a second each.
func tinyWorkloads() []workload {
	tinyUnicast := unicastSize{
		bridges: 16, degree: 3, flows: 4, hops: 3, shards: 1,
		quantum: time.Millisecond, roundQuanta: 5, pinRounds: 1, setupReps: 2, tracedRounds: 1,
	}
	sharded := tinyUnicast
	sharded.shards = 2
	return []workload{
		unicast("steady_unicast", tinyUnicast),
		unicast("sharded_unicast", sharded),
		pump("pump_forward", pumpSize{k: 4, pairs: 2, train: 32, setupReps: 2, tracedTrains: 3}),
		churn("discovery_churn", churnSize{conversations: 400, setupReps: 2, pinnedConversations: 400}),
		daemon("serve_mixed", serveSize{bridges: 16, degree: 3, conns: 2, quantum: 10 * time.Millisecond, setupReps: 2, floorOps: 20}),
	}
}

// TestWorkloadsEndToEnd runs every workload kind untraced and traced and
// requires a correct result carrying exactly the declared metrics.
func TestWorkloadsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload end to end")
	}
	microDiv = 200
	defer func() { microDiv = 1 }()
	dir := t.TempDir()
	t.Chdir(dir) // the daemon's socket lives under ./.bench_build
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 2, seconds: 0.2, trace: traced}
			if traced {
				cfg.traceFile = filepath.Join(dir, w.name+".spans.json")
			}
			o, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			rec := buildRecord(w.name, cfg, o)
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
			}
			if !traced {
				for _, d := range endToEnd {
					if rec.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.Name, rec.Metrics[d.Name].Value)
					}
				}
				continue
			}
			var file struct {
				Spans []span `json:"spans"`
			}
			b, err := os.ReadFile(cfg.traceFile)
			if err == nil {
				err = json.Unmarshal(b, &file)
			}
			if err != nil || len(file.Spans) < 5 {
				t.Errorf("%s: span file: %d spans, err %v", w.name, len(file.Spans), err)
			}
			for _, s := range file.Spans {
				if s.EndNS < s.StartNS || s.Parent >= s.ID {
					t.Errorf("%s: malformed span %+v", w.name, s)
				}
			}
			for _, name := range []string{"core.micro.hop_ns", "op_time_p50_us", "op_time_tail_us"} {
				if rec.Metrics[name].Value <= 0 {
					t.Errorf("%s: %s missing from the traced run", w.name, name)
				}
			}
		}
	}
}

// TestMainPrintsTheContractLine drives the command line: the last stdout
// line is one JSON object with exactly the four contract keys.
func TestMainPrintsTheContractLine(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	var stdout, stderr bytes.Buffer
	out := filepath.Join(t.TempDir(), "runs.json")
	code := run([]string{"--workload", "pump_forward", "--seed", "3", "--seconds", "0.2", "--trace", "0", "--out", out}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want exactly 4: %s", len(got), lines[len(lines)-1])
	}
	recs, err := readRecords(out)
	if err != nil || len(recs) != 1 || recs[0].Workload != "pump_forward" || recs[0].Machine.GoVersion == "" {
		t.Errorf("-out record: %+v, err %v", recs, err)
	}
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload must not exit 0")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json and the harness in
// step: same workloads, same metrics with the same units and directions,
// every end-to-end metric bounded.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}
	if n := len(bf.EndToEnd); n != len(endToEnd) || n > 16 {
		t.Errorf("end_to_end has %d metrics, the harness emits %d (limit 16)", n, len(endToEnd))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		if i < len(endToEnd) && (metricDef{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, harness has %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Unit == "" || !nameRE.MatchString(m.Name) {
			t.Errorf("end_to_end %q: bound %v unit %q", m.Name, m.Bound, m.Unit)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	if n := len(bf.PerLayer); n != len(perLayer) || n > 128 {
		t.Errorf("per_layer has %d metrics, the harness emits %d (limit 128)", n, len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bf.PerLayer {
		if i < len(perLayer) && (metricDef{m.Name, m.Unit, m.Better}) != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, harness has %+v", i, m, perLayer[i])
		}
		if !nameRE.MatchString(m.Name) || seen[m.Name] || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per_layer %q: bad or repeated name, or direction %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
}

func TestStatistics(t *testing.T) {
	if got := median([]float64{5, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	asc := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// The maximum below 40 samples, ten samples beyond the tail below 1100,
	// p99 from there up.
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 5}, {12, 12}, {84, 74}, {1099, 1089}, {2000, 1980}} {
		if got := tail(asc(c.n)); got != c.want {
			t.Errorf("tail of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
	qs := make([]quantum, 110)
	for i := range qs {
		qs[i] = quantum{wall: time.Millisecond, ops: 100}
	}
	qs[3].wall = time.Second // inside the discarded warm slice
	if got := batchRate(qs); got != 100_000 {
		t.Errorf("batchRate = %v, want 100000 (the warm slice must not count)", got)
	}
	for i := 20; i < 110; i++ { // a host that is busy most of the run
		qs[i].wall = 2 * time.Millisecond
	}
	if got := batchRate(qs); got != 100_000 {
		t.Errorf("batchRate = %v, want 100000 (time the host adds must not count)", got)
	}
	// 11 s of daemon ops, one per ms, then every other one for the second
	// half: the quick groups still read 1000 ops/s.
	var ops []opSample
	t0 := time.Unix(0, 0)
	for i := 0; i < 11000; i++ {
		if i < 5500 || i%2 == 0 {
			at := t0.Add(time.Duration(i) * time.Millisecond)
			ops = append(ops, opSample{start: at, end: at.Add(time.Millisecond)})
		}
	}
	if got := opRate(ops); math.Abs(got-1000) > 1e-6 {
		t.Errorf("opRate = %v, want 1000", got)
	}
	o := newOutcome()
	opTimeMetrics(o, perOpMicros(qs[10:20]))
	if got := o.metrics["op_time_p50_us"]; got != 10 {
		t.Errorf("op_time_p50_us = %v, want 10", got)
	}
}

func TestCompare(t *testing.T) {
	rec := func(ops float64, events int64) record {
		return record{Workload: "steady_unicast", Seed: 1, Exact: map[string]int64{"pin.events": events},
			resultLine: resultLine{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"ops_per_sec": {ops, "1/s"}}}}
	}
	bounds := map[string]float64{"ops_per_sec": 0.05}
	for _, c := range []struct {
		name string
		b    record
		want int
	}{
		{"within the bound", rec(97, 10), 0},
		{"a gain", rec(150, 10), 0},
		{"beyond the bound", rec(90, 10), 1},
		{"an exact count moved", rec(100, 11), 1},
	} {
		var out bytes.Buffer
		if got := compareRecords([]record{rec(100, 10)}, []record{c.b}, bounds, &out); got != c.want {
			t.Errorf("%s: exit %d, want %d\n%s", c.name, got, c.want, out.String())
		}
	}
}

// TestPinsCoverEveryDeterministicWorkload guards expected.json against
// silently losing a section: every workload but the live daemon (whose op
// interleaving is wall-clock driven) pins both of its runs.
func TestPinsCoverEveryDeterministicWorkload(t *testing.T) {
	var all map[string]map[string]int64
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.name == "serve_mixed" {
			continue
		}
		for _, run := range []string{"/untraced", "/traced"} {
			if len(all[w.name+run]) == 0 {
				t.Errorf("expected.json pins nothing for %s%s", w.name, run)
			}
		}
	}
	o := newOutcome()
	o.exact["pin.events"] = 1
	checkPins("steady_unicast", false, o)
	if len(o.problems) == 0 {
		t.Error("a wrong pinned count was not reported")
	}
}

// TestFabricvetClean holds this package to the tree's static contracts
// (TestTreeIsClean walks `go list ./...` of the root module, which does
// not reach a nested module): frame ownership applies to the stub
// netsim.Node of the link micro.
func TestFabricvetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the package")
	}
	pkgs, err := analysis.Load(".", ".")
	if err != nil || len(pkgs) == 0 {
		t.Fatalf("load: %d packages, %v", len(pkgs), err)
	}
	for _, d := range analysis.Run(analysis.All(), pkgs) {
		t.Errorf("%s: [%s] %s", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
