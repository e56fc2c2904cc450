package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// lockWindows is the T5 sweep: below, near and above the test ring's
// flood traversal time.
func lockWindows() []time.Duration {
	return []time.Duration{
		time.Millisecond,
		5 * time.Millisecond,
		20 * time.Millisecond,
		200 * time.Millisecond,
	}
}

// runBench is the fabricbench harness: the extended experiments derived
// from the paper's §2.2 claims (DESIGN.md T1–T6), the forwarding
// benchmark and the sharded-engine scaling experiment.
func (r *Runner) runBench(spec Spec, out, errw io.Writer, res *Result) error {
	seed := spec.Seed
	switch spec.Workload.Kind {
	case "properties":
		r.emit(out, res, experiments.T1Table(experiments.RunT1Properties(seed, 6)))
	case "load":
		ap := experiments.RunT2Load(seed, topo.ARPPath)
		st := experiments.RunT2Load(seed, topo.STP)
		r.emit(out, res, experiments.T2Table([]*experiments.T2Result{ap, st}))
	case "proxy":
		r.emit(out, res, experiments.T3Table(experiments.RunT3Proxy(seed, []int{4, 8, 16, 32})))
	case "repair":
		r.emit(out, res, experiments.T4Table(experiments.RunT4Repair(seed)))
	case "lockwindow":
		r.emit(out, res, experiments.T5Table(experiments.RunT5LockWindow(seed, lockWindows())))
	case "tablesize":
		r.emit(out, res, experiments.T6Table(experiments.RunT6TableSize(seed, []int{8, 16, 32})))
	case "forward":
		r.emit(out, res, experiments.ForwardTable(experiments.RunForwardBench(seed, spec.Workload.Frames)))
	case "scale":
		t, bench, err := runScale(seed, spec.Workload.Bridges, spec.Shards, spec.Procs, errw)
		if t == nil {
			return err
		}
		// A failed speedup verdict arrives with the matrix it judged:
		// the artifact and the table are still reported, then the error.
		res.BenchJSON = bench
		r.emit(out, res, t)
		return err
	case "allpath":
		r.emit(out, res, experiments.AllPathTable(experiments.RunAllPath(experiments.AllPathConfig{
			Seed: seed, Bridges: spec.Workload.Bridges, Degree: 3,
			Flows: spec.Workload.Flows,
		})))
	case "tables":
		tcfg := experiments.DefaultTablesConfig(seed, spec.Workload.Conversations)
		rs := experiments.RunTables(tcfg)
		bench, err := experiments.TablesJSON(rs)
		if err != nil {
			return err
		}
		res.BenchJSON = bench
		r.emit(out, res, experiments.TablesTable(rs))
	case "all":
		for _, kind := range []string{"properties", "load", "proxy", "repair", "lockwindow", "tablesize"} {
			spec.Workload.Kind = kind
			if err := r.runBench(spec, out, errw, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// benchRecord is one scale run's machine-dependent half, serialized for
// the CI bench artifact. Records pair by (bridges, shards, gomaxprocs);
// events/delivered/windows/barriers/exchanged are deterministic, the
// wall-clock family (wall_ns, events_per_sec, frames_per_sec, and the
// hand-off costs: handoffs, wake_ns summed over them, wait_ns summed over
// windows — all three zero at gomaxprocs 1) is not.
type benchRecord struct {
	Bridges      int     `json:"bridges"`
	Shards       int     `json:"shards"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	LookaheadNS  int64   `json:"lookahead_ns"`
	Events       uint64  `json:"events"`
	Delivered    int     `json:"delivered"`
	Windows      uint64  `json:"windows"`
	Barriers     uint64  `json:"barriers"`
	Exchanged    uint64  `json:"exchanged"`
	Handoffs     uint64  `json:"handoffs"`
	WakeNS       int64   `json:"wake_ns"`
	WaitNS       int64   `json:"wait_ns"`
	WallNS       int64   `json:"wall_ns"`
	EventsPerSec float64 `json:"events_per_sec"`
	FramesPerSec float64 `json:"frames_per_sec"`
}

// runScale sweeps shard counts 1..maxShards (doubling) on one fabric —
// once per requested GOMAXPROCS value — and renders the deterministic
// table; wall-clock figures go to errw and come back as the JSON bench
// artifact. The deterministic columns must not move across procs passes:
// a mismatch is a coordinator bug and fails the run. A failed speedup
// verdict is returned together with the table and artifact it judged;
// every other error comes alone.
func runScale(seed int64, bridges, maxShards int, procs []int, errw io.Writer) (*metrics.Table, []byte, error) {
	// Shard counts: doubling from 1, always ending exactly at maxShards.
	var counts []int
	for k := 1; k < maxShards; k *= 2 {
		counts = append(counts, k)
	}
	counts = append(counts, maxShards)
	ambient := runtime.GOMAXPROCS(0)
	if len(procs) == 0 {
		procs = []int{ambient}
	}
	defer runtime.GOMAXPROCS(ambient)

	var results []*experiments.ScaleResult
	var records []benchRecord
	byShards := make(map[int]*experiments.ScaleResult)
	for _, p := range procs {
		if p < 1 {
			return nil, nil, fmt.Errorf("fabric: scale procs value %d", p)
		}
		runtime.GOMAXPROCS(p)
		for _, k := range counts {
			cfg := experiments.DefaultScaleConfig(seed, k)
			cfg.Bridges = bridges
			sr := experiments.RunScale(cfg)
			if ref, ok := byShards[k]; !ok {
				byShards[k] = sr
				// The table reports deterministic columns only, so one row
				// per shard count regardless of how many procs passes ran.
				results = append(results, sr)
			} else if ref.Events != sr.Events || ref.Delivered != sr.Delivered ||
				ref.Windows != sr.Windows || ref.Barriers != sr.Barriers || ref.Exchanged != sr.Exchanged {
				return nil, nil, fmt.Errorf(
					"fabric: scale shards=%d diverged at GOMAXPROCS=%d: events=%d delivered=%d windows=%d barriers=%d exchanged=%d, want %d/%d/%d/%d/%d",
					k, p, sr.Events, sr.Delivered, sr.Windows, sr.Barriers, sr.Exchanged,
					ref.Events, ref.Delivered, ref.Windows, ref.Barriers, ref.Exchanged)
			}
			fmt.Fprintf(errw, "%s gomaxprocs=%d\n", experiments.ScaleBenchLine(sr), p)
			records = append(records, benchRecord{
				Bridges: sr.Bridges, Shards: k, GOMAXPROCS: p,
				LookaheadNS: int64(sr.Lookahead), Events: sr.Events, Delivered: sr.Delivered,
				Windows: sr.Windows, Barriers: sr.Barriers, Exchanged: sr.Exchanged,
				Handoffs: sr.Handoffs, WakeNS: sr.WakeNS, WaitNS: sr.WaitNS,
				WallNS: int64(sr.Wall), EventsPerSec: sr.EventsPerSec, FramesPerSec: sr.FramesPerSec,
			})
		}
	}
	bench, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return nil, nil, err
	}
	return experiments.ScaleTable(results), append(bench, '\n'), speedupVerdict(records, errw)
}

// The multi-core claim (DESIGN.md §8): given at least speedupShards OS
// threads, the speedupShards-shard run finishes minSpeedup times faster
// than the 1-shard run of the same workload.
const (
	speedupShards = 4
	minSpeedup    = 2.0
)

// speedupVerdict judges the claim on one scale matrix. A GOMAXPROCS pass
// is judged when it had the threads (gomaxprocs >= speedupShards) and ran
// both ends of the ratio; each judged pass gets a line on errw, and the
// error names every pass that fell short. A matrix with nothing to judge
// — a runner with fewer cores, a sweep that stopped below speedupShards —
// writes nothing and returns nil: the claim is about hardware it lacks.
func speedupVerdict(records []benchRecord, errw io.Writer) error {
	var short []error
	for _, k := range records {
		if k.GOMAXPROCS < speedupShards || k.Shards != speedupShards || k.WallNS <= 0 {
			continue
		}
		for _, one := range records {
			if one.GOMAXPROCS != k.GOMAXPROCS || one.Shards != 1 {
				continue
			}
			got := float64(one.WallNS) / float64(k.WallNS)
			line := fmt.Sprintf("scale: gomaxprocs=%d: %d shards ran %.2fx faster than 1 (want >= %.2fx)",
				k.GOMAXPROCS, speedupShards, got, minSpeedup)
			fmt.Fprintln(errw, line)
			if got < minSpeedup {
				short = append(short, errors.New(line))
			}
		}
	}
	return errors.Join(short...)
}
