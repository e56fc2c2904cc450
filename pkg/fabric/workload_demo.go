package fabric

import (
	"fmt"
	"io"
	"time"

	"repro/internal/experiments"
	"repro/internal/stp"
	"repro/internal/topo"
)

// runFigure2Demo is the figure2-demo harness: the paper's Figure 2 latency
// comparison, ARP-Path vs STP across the delay profiles.
func (r *Runner) runFigure2Demo(spec Spec, out io.Writer, res *Result) error {
	cfg := experiments.DefaultFigure2Config()
	cfg.Seed = spec.Seed
	cfg.Pings = spec.Workload.Pings
	cfg.Interval = spec.Workload.Interval.D()

	rows := experiments.RunFigure2(cfg)
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
	cfg.Seed = spec.Seed
	cfg.StreamSize = spec.Workload.StreamSize
	cfg.FailureTimes = nil
	for i := 0; i < spec.Workload.Failures; i++ {
		cfg.FailureTimes = append(cfg.FailureTimes, time.Duration(50+100*i)*time.Millisecond)
	}
	if spec.Workload.FastSTP {
		cfg.STPTimers = stp.FastTimers()
	}

	results := []*experiments.Figure3Result{experiments.RunFigure3(cfg, topo.ARPPath)}
	if spec.Workload.WithSTP == nil || *spec.Workload.WithSTP {
		results = append(results, experiments.RunFigure3(cfg, topo.STP))
	}
	r.emit(out, res, experiments.Figure3Table(results))
	for _, fr := range results {
		if !r.CSV && fr.Report != nil && fr.Report.Goodput != nil {
			fmt.Fprintln(out, fr.Report.Goodput.ASCII(72, 8))
		}
	}
	return nil
}
