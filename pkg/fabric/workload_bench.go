package fabric

import (
	"io"

	"repro/internal/experiments"
	"repro/internal/topo"
)

// The two sweeps internal/experiments runs at the Spec's seed and shard
// count, the sharded-engine scaling table and the eviction-pressure
// capacity sweep, and the build half every paper row compiles.

// paperOptions compiles the build half of a paper row's Spec: protocol p
// with its registered defaults at the Spec's seed, shard count and
// observers.
func (s Spec) paperOptions(p topo.Protocol) topo.Options {
	o := topo.DefaultOptions(p, s.Seed)
	o.Shards, o.Observers = s.Shards, s.observers
	return o
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
	rs := experiments.RunTablesSharded(experiments.DefaultTablesConfig(spec.Seed, spec.Workload.Conversations), spec.paperOptions(topo.ARPPath))
	bench, err := experiments.TablesJSON(rs)
	if err != nil {
		return err
	}
	res.BenchJSON = bench
	r.emit(out, res, experiments.TablesTable(rs))
	return nil
}
