package fabric

import (
	"io"
	"time"

	"repro/internal/experiments"
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
// from the paper's §2.2 claims (DESIGN.md T1–T6) and the sharded-engine
// scaling experiment.
func (r *Runner) runBench(spec Spec, out io.Writer, res *Result) error {
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
	case "scale":
		rs := runScale(seed, spec.Workload.Bridges, spec.Shards)
		r.emit(out, res, experiments.ScaleTable(rs))
		r.emit(out, res, experiments.ScaleCoordTable(rs))
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
			if err := r.runBench(spec, out, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// runScale sweeps shard counts 1..maxShards (doubling) on one fabric.
func runScale(seed int64, bridges, maxShards int) []*experiments.ScaleResult {
	var results []*experiments.ScaleResult
	// Shard counts: doubling from 1, always ending exactly at maxShards.
	for k := 1; ; k = min(2*k, maxShards) {
		cfg := experiments.DefaultScaleConfig(seed, k)
		cfg.Bridges = bridges
		results = append(results, experiments.RunScale(cfg))
		if k >= maxShards {
			return results
		}
	}
}
