// Command perf is the repository's benchmark: six named workloads over
// the ARP-Path fabric simulator and its serving daemon, each run in its
// own process, each checking its outputs, each printing the end-to-end
// metrics (untraced run) or the per-layer ledger (traced run) named in
// the root BENCHMARK.json. README.md beside this file is the glossary.
//
// Host time and simulated time are never mixed: every rate is per wall
// second, and simulated quantities appear only as exact counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// metricDef is one row of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what a user of the system sees, reported by every workload
// with tracing off. An "op" is the workload's unit of user work (see
// workloads): a delivered data frame, a completed conversation, an
// acknowledged daemon op.
var endToEnd = []metricDef{
	{"ops_per_sec", "1/s", "higher"},
	{"setup_s", "s", "lower"},
}

// machine is recorded in every -out record: wall-clock numbers mean
// nothing without it.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last stdout line: exactly these keys.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the richer -out line that -compare reads: the result plus
// what identifies the run and the exact counts that must repeat.
type record struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Seconds  float64          `json:"seconds"`
	Trace    bool             `json:"trace"`
	Machine  machine          `json:"machine"`
	Exact    map[string]int64 `json:"exact"`
	Problems []string         `json:"problems,omitempty"`
	resultLine
}

// outcome is what a workload hands back.
type outcome struct {
	attempted, failed int64
	// metrics holds the end-to-end values (untraced) or the per-layer
	// values (traced), by name.
	metrics map[string]float64
	// exact holds counts that are a function of (workload, seed, size)
	// alone: pinned in expected.json at seed 1, compared by -compare.
	exact map[string]int64
	// problems lists every failed output check; empty means correct.
	problems []string
	// gomaxprocs is what the workload ran at, when it set it itself.
	gomaxprocs int
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, exact: map[string]int64{}}
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runConfig is one invocation.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	// traceFile receives the span file of a traced run ("" = none).
	traceFile string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed (same seed, same inputs)")
	seconds := fs.Float64("seconds", 18, "length of the measured phase, wall seconds")
	trace := fs.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file instead of end-to-end metrics")
	spans := fs.String("spans", "", "traced run: span file path (default .bench_build/trace/<workload>-seed<n>.json)")
	out := fs.String("out", "", "append the full run record (JSON line) to this file, for -compare")
	compare := fs.Bool("compare", false, "compare two -out files: perf -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: perf -compare A.json B.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "perf: unknown workload %q (have: %s)\n", *name, workloadNames())
		return 2
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perf: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *trace == 1}
	if cfg.trace {
		cfg.traceFile = *spans
		if cfg.traceFile == "" {
			cfg.traceFile = fmt.Sprintf(".bench_build/trace/%s-seed%d.json", w.name, cfg.seed)
		}
	}

	o, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perf: %s: %v\n", w.name, err)
		return 1
	}
	if cfg.seed == 1 {
		checkPins(w.name, cfg.trace, o)
	}
	rec := buildRecord(w.name, cfg, o)
	for _, p := range rec.Problems {
		fmt.Fprintf(stderr, "perf: %s: CHECK FAILED: %s\n", w.name, p)
	}
	fmt.Fprintf(stderr, "perf: %s seed=%d trace=%v nproc=%d gomaxprocs=%d %s attempted=%d failed=%d\n",
		w.name, cfg.seed, cfg.trace, rec.Machine.NumCPU, rec.Machine.GOMAXPROCS, rec.Machine.GoVersion,
		rec.Attempted, rec.Failed)
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintf(stderr, "perf: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.resultLine)
	if err != nil {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

// buildRecord shapes an outcome into the contract's metric set: every
// end-to-end metric on an untraced run, every per-layer metric on a
// traced one. A per-layer metric whose layer the workload never enters
// reads 0; a missing end-to-end metric is a harness bug and fails the run.
func buildRecord(name string, cfg runConfig, o *outcome) record {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := o.metrics[d.Name]
		if !ok && !cfg.trace {
			o.problemf("end-to-end metric %s was not measured", d.Name)
		}
		metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for n := range o.metrics {
		if _, declared := metrics[n]; !declared {
			o.problemf("metric %s is emitted but not declared", n)
		}
	}
	sort.Strings(o.problems)
	procs := o.gomaxprocs
	if procs == 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	return record{
		Workload: name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Machine:  machine{NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version()},
		Exact:    o.exact,
		Problems: o.problems,
		resultLine: resultLine{
			Correct:   len(o.problems) == 0,
			Attempted: max(o.attempted, 1),
			Failed:    o.failed,
			Metrics:   metrics,
		},
	}
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
