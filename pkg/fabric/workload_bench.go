package fabric

import (
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// The evaluation tables: the extended experiments derived from the
// paper's §2.2 claims (DESIGN.md T1–T6), one per kind and all six under
// "all".

func t1Properties(seed int64) *metrics.Table {
	return experiments.T1Table(experiments.RunT1Properties(seed, 6))
}

func t2Load(seed int64) *metrics.Table {
	ap := experiments.RunT2Load(seed, topo.ARPPath)
	st := experiments.RunT2Load(seed, topo.STP)
	return experiments.T2Table([]*experiments.T2Result{ap, st})
}

func t3Proxy(seed int64) *metrics.Table {
	return experiments.T3Table(experiments.RunT3Proxy(seed, []int{4, 8, 16, 32}))
}

func t4Repair(seed int64) *metrics.Table { return experiments.T4Table(experiments.RunT4Repair(seed)) }

// t5LockWindow sweeps the lock window below, near and above the test
// ring's flood traversal time.
func t5LockWindow(seed int64) *metrics.Table {
	return experiments.T5Table(experiments.RunT5LockWindow(seed, []time.Duration{
		time.Millisecond, 5 * time.Millisecond, 20 * time.Millisecond, 200 * time.Millisecond,
	}))
}

func t6TableSize(seed int64) *metrics.Table {
	return experiments.T6Table(experiments.RunT6TableSize(seed, []int{8, 16, 32}))
}

// runScale is the sharded-engine scaling experiment: shard counts
// 1..Shards (doubling, always ending exactly at Shards) on one fabric.
func (r *Runner) runScale(spec Spec, out io.Writer, res *Result) error {
	var rs []*experiments.ScaleResult
	for k := 1; ; k = min(2*k, spec.Shards) {
		cfg := experiments.DefaultScaleConfig(spec.Seed, k)
		cfg.Bridges = spec.Workload.Bridges
		rs = append(rs, experiments.RunScale(cfg))
		if k >= spec.Shards {
			break
		}
	}
	r.emit(out, res, experiments.ScaleTable(rs))
	r.emit(out, res, experiments.ScaleCoordTable(rs))
	return nil
}

func (r *Runner) runAllPath(spec Spec, out io.Writer, res *Result) error {
	r.emit(out, res, experiments.AllPathTable(experiments.RunAllPath(experiments.AllPathConfig{
		Seed: spec.Seed, Bridges: spec.Workload.Bridges, Degree: 3, Flows: spec.Workload.Flows,
	})))
	return nil
}

func (r *Runner) runTables(spec Spec, out io.Writer, res *Result) error {
	rs := experiments.RunTables(experiments.DefaultTablesConfig(spec.Seed, spec.Workload.Conversations))
	bench, err := experiments.TablesJSON(rs)
	if err != nil {
		return err
	}
	res.BenchJSON = bench
	r.emit(out, res, experiments.TablesTable(rs))
	return nil
}
