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
	table := experiments.Figure2Table(rows)
	speedups := experiments.Figure2Speedups(rows)
	if r.CSV {
		res.Tables = append(res.Tables, table, speedups)
		fmt.Fprint(out, table.CSV())
		fmt.Fprint(out, speedups.CSV())
		return nil
	}
	res.Tables = append(res.Tables, table, speedups)
	fmt.Fprintln(out, table)
	fmt.Fprintln(out, speedups)
	if r.Graphs {
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
	table := experiments.Figure3Table(results)
	res.Tables = append(res.Tables, table)
	if r.CSV {
		fmt.Fprint(out, table.CSV())
		return nil
	}
	fmt.Fprintln(out, table)
	for _, fr := range results {
		if fr.Report != nil && fr.Report.Goodput != nil {
			fmt.Fprintln(out, fr.Report.Goodput.ASCII(72, 8))
		}
	}
	return nil
}
