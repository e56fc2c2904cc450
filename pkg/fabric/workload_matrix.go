package fabric

import (
	"fmt"
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
)

// runMatrix drives a spec-level traffic matrix on the Spec's topology:
// the seeded flow schedule (hotspot, permutation or weighted pairs) runs
// as TCP-lite transfers over whatever protocol the Spec names — the
// workload that makes per-flow path diversity visible, where all-pairs
// pings only ever exercise one conversation at a time.
func (r *Runner) runMatrix(spec Spec, out io.Writer, res *Result) error {
	opts, err := spec.Options()
	if err != nil {
		return err
	}
	built, err := BuildTopology(opts, spec.Topology)
	if err != nil {
		return err
	}
	hosts := len(numberedHosts(built))
	if hosts < 2 {
		fmt.Fprintln(out, "matrix needs H1..Hn hosts (use ring/grid/fattree/random families)")
		return ErrIncomplete
	}
	w := spec.Workload
	mcfg := experiments.MatrixConfig{
		Pattern:  experiments.MatrixPattern(w.Pattern),
		Hosts:    hosts,
		Flows:    w.Flows,
		Hotspots: w.Hotspots,
		Skew:     w.Skew,
		Bytes:    w.FlowBytes,
		Arrival:  w.Arrival.D(),
	}
	flows := experiments.BuildMatrix(mcfg, spec.Seed)
	run := experiments.DriveMatrix(built, flows)

	fmt.Fprintf(out, "topology=%s bridges=%d hosts=%d links=%d protocol=%s seed=%d pattern=%s\n\n",
		spec.Topology.Family, len(built.Bridges), len(built.Hosts), len(built.Links),
		spec.Protocol.Name, spec.Seed, w.Pattern)
	t := metrics.NewTable("traffic matrix ("+w.Pattern+")",
		"flows", "completed", "delivered B", "finish (virt)", "table Σ", "table max", "eff trunks", "max trunk share")
	t.AddRow(run.Flows, run.Completed, run.DeliveredBytes, run.FinishedAt.Round(time.Microsecond),
		run.TableEntries, run.TableMax, fmt.Sprintf("%.1f", run.EffTrunks), fmt.Sprintf("%.3f", run.TrunkShareMax))
	r.emit(out, res, t)
	if run.Completed != run.Flows {
		fmt.Fprintf(out, "%d of %d transfers did not complete\n", run.Flows-run.Completed, run.Flows)
		return ErrIncomplete
	}
	return nil
}
