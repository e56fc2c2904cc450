package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles is the repeatability and parent-vs-change tool: A and B are
// -out files (one record per line, any number of runs per workload). For
// every (workload, end-to-end metric) it prints both medians, B's relative
// change in the metric's worse direction, and whether that exceeds the
// metric's bound in BENCHMARK.json; for every exact count present on both
// sides at the same seed it requires equality. The exit code is 1 when
// any bound is exceeded or any count differs.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	fail := func(err error) int {
		fmt.Fprintf(stderr, "perf: %v\n", err)
		return 2
	}
	a, err := readRecords(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readRecords(pathB)
	if err != nil {
		return fail(err)
	}
	bounds, err := readBounds()
	if err != nil {
		return fail(err)
	}
	return compareRecords(a, b, bounds, stdout)
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// readBenchmarkFile finds BENCHMARK.json from the repository root or from
// this directory.
func readBenchmarkFile() (*benchmarkFile, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var bf benchmarkFile
		if err := json.Unmarshal(b, &bf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &bf, nil
	}
	return nil, lastErr
}

func readBounds() (map[string]float64, error) {
	bf, err := readBenchmarkFile()
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

func compareRecords(a, b []record, bounds map[string]float64, out io.Writer) int {
	bad := 0
	fmt.Fprintf(out, "%-16s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "worse", "bound", "")
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := valuesOf(a, w.name, d.Name), valuesOf(b, w.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > bounds[d.Name] {
				verdict = "EXCEEDS BOUND"
				bad++
			}
			fmt.Fprintf(out, "%-16s %-16s %14.4f %14.4f %+7.2f%% %5.0f%%  %s (n=%d,%d)\n",
				w.name, d.Name, ma, mb, 100*worse, 100*bounds[d.Name], verdict, len(va), len(vb))
		}
	}
	type runKey struct {
		workload string
		seed     int64
		trace    bool
	}
	exactA := map[runKey]map[string]int64{}
	for _, r := range a {
		exactA[runKey{r.Workload, r.Seed, r.Trace}] = r.Exact
	}
	compared := 0
	for _, r := range b {
		ea, ok := exactA[runKey{r.Workload, r.Seed, r.Trace}]
		if !ok {
			continue
		}
		names := make([]string, 0, len(r.Exact))
		for n := range r.Exact {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			va, ok := ea[n]
			if !ok {
				continue
			}
			compared++
			if va != r.Exact[n] {
				fmt.Fprintf(out, "EXACT COUNT DIFFERS %s seed=%d trace=%v %s: A=%d B=%d\n", r.Workload, r.Seed, r.Trace, n, va, r.Exact[n])
				bad++
			}
		}
	}
	fmt.Fprintf(out, "exact counts compared: %d\n", compared)
	if bad > 0 {
		fmt.Fprintf(out, "FAIL: %d difference(s) beyond bounds\n", bad)
		return 1
	}
	fmt.Fprintln(out, "PASS: every end-to-end metric within its bound, every exact count identical")
	return 0
}

// valuesOf collects one end-to-end metric over a file's untraced runs of
// a workload.
func valuesOf(recs []record, workload, metric string) []float64 {
	var vs []float64
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}
