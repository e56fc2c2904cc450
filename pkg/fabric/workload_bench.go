package fabric

import (
	"fmt"
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/stp"
	"repro/internal/topo"
)

// The paper's rows, each run by internal/experiments at the Spec's seed
// and shard count: the evaluation tables derived from its §2.2 claims
// (DESIGN.md T1–T6, one per kind and all six under "all"), the scaling
// and eviction-pressure sweeps, and the Figure 2 and Figure 3 demos.

// paperOptions compiles the build half of a paper row's Spec: protocol p
// with its registered defaults at the Spec's seed and shard count.
func (s Spec) paperOptions(p topo.Protocol) topo.Options {
	o := topo.DefaultOptions(p, s.Seed)
	o.Shards = s.Shards
	return o
}

func t1Properties(o topo.Options) *metrics.Table {
	return experiments.T1Table(experiments.RunT1Properties(o, 6))
}

func t2Load(o topo.Options) *metrics.Table {
	ap := experiments.RunT2Load(o, topo.ARPPath)
	st := experiments.RunT2Load(o, topo.STP)
	return experiments.T2Table([]*experiments.T2Result{ap, st})
}

func t3Proxy(o topo.Options) *metrics.Table {
	return experiments.T3Table(experiments.RunT3Proxy(o, []int{4, 8, 16, 32}))
}

func t4Repair(o topo.Options) *metrics.Table { return experiments.T4Table(experiments.RunT4Repair(o)) }

// t5LockWindow sweeps the lock window below, near and above the test
// ring's flood traversal time.
func t5LockWindow(o topo.Options) *metrics.Table {
	return experiments.T5Table(experiments.RunT5LockWindow(o, []time.Duration{
		time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond,
	}))
}

func t6TableSize(o topo.Options) *metrics.Table {
	return experiments.T6Table(experiments.RunT6TableSize(o, []int{8, 16, 32}))
}

// runScale is the sharded-engine scaling experiment: shard counts
// 1..Shards (doubling, always ending exactly at Shards) on one fabric.
func (r *Runner) runScale(spec Spec, out io.Writer, res *Result) error {
	cfg := experiments.DefaultScaleConfig()
	cfg.Bridges = spec.Workload.Bridges
	var rs []*experiments.ScaleResult
	for k := 1; ; k = min(2*k, spec.Shards) {
		o := spec.paperOptions(topo.ARPPath)
		o.Shards = k
		rs = append(rs, experiments.RunScale(o, cfg))
		if k >= spec.Shards {
			break
		}
	}
	r.emit(out, res, experiments.ScaleTable(rs))
	r.emit(out, res, experiments.ScaleCoordTable(rs))
	return nil
}

func (r *Runner) runTables(spec Spec, out io.Writer, res *Result) error {
	rs := experiments.RunTablesSharded(experiments.DefaultTablesConfig(spec.Seed, spec.Workload.Conversations), spec.Shards)
	bench, err := experiments.TablesJSON(rs)
	if err != nil {
		return err
	}
	res.BenchJSON = bench
	r.emit(out, res, experiments.TablesTable(rs))
	return nil
}

// runFigure2Demo is the figure2-demo harness: the paper's Figure 2 latency
// comparison, ARP-Path vs STP across the delay profiles.
func (r *Runner) runFigure2Demo(spec Spec, out io.Writer, res *Result) error {
	cfg := experiments.DefaultFigure2Config()
	cfg.Pings = spec.Workload.Pings
	cfg.Interval = spec.Workload.Interval.D()

	rows := experiments.RunFigure2(spec.paperOptions(topo.ARPPath), cfg)
	r.emit(out, res, experiments.Figure2Table(rows))
	r.emit(out, res, experiments.Figure2Speedups(rows))
	if r.Graphs && !r.CSV {
		for _, row := range rows {
			fmt.Fprintln(out, row.Series.ASCII(72, 8))
		}
	}
	return nil
}

// runPathRepair is the path-repair harness: the paper's Figure 3 streaming
// demo under successive link failures, optionally with the STP baseline.
func (r *Runner) runPathRepair(spec Spec, out io.Writer, res *Result) error {
	cfg := experiments.DefaultFigure3Config()
	cfg.StreamSize = spec.Workload.StreamSize
	cfg.Failures = spec.Workload.Failures

	results := []*experiments.Figure3Result{experiments.RunFigure3(spec.paperOptions(topo.ARPPath), cfg)}
	if *spec.Workload.WithSTP {
		st := spec.paperOptions(topo.STP)
		if spec.Workload.FastSTP {
			// The warm-up stays the default timers' budget on purpose: the
			// demo pulls cables against a fabric that converged on
			// standard timing.
			*st.STP() = stp.FastTimers()
		}
		results = append(results, experiments.RunFigure3(st, cfg))
	}
	r.emit(out, res, experiments.Figure3Table(results))
	for _, fr := range results {
		if !r.CSV && fr.Report != nil && fr.Report.Goodput != nil {
			fmt.Fprintln(out, fr.Report.Goodput.ASCII(72, 8))
		}
	}
	return nil
}
