package experiments_test

// The benchmark harness: one testing.B benchmark per figure and table of
// the paper's evaluation (DESIGN.md §4). Each benchmark runs the same
// experiment code the cmd/ tools print, and reports the figure's headline
// quantities as custom benchmark metrics, so
//
//	go test -bench=. -benchmem ./internal/experiments
//
// regenerates every number in EXPERIMENTS.md (the forwarding-path and
// table-churn benchmarks sit beside the zero-allocation gates in
// internal/topo). Absolute values come from the simulated testbed (see
// the substitution table in DESIGN.md); the shapes — who wins, by what
// factor — are the reproduction targets.

import (
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/topo"
)

// BenchmarkFigure1Discovery regenerates Figure 1: the ARP-Path discovery
// walkthrough on the 5-bridge mesh. Reported metric: the ARP round trip
// that sets the path up.
func BenchmarkFigure1Discovery(b *testing.B) {
	var last *experiments.Figure1Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunFigure1(1)
	}
	b.ReportMetric(float64(last.DiscoveryTime.Microseconds()), "discovery-µs")
	b.ReportMetric(float64(len(last.Path)-1), "path-hops")
}

// BenchmarkFigure2ArpPathVsSTP regenerates Figure 2: the latency
// comparison between ARP-Path and STP on the demo testbed. Reported
// metrics: mean steady-state RTTs on the slow-diagonal profile and the
// STP/ARP-Path latency ratio.
func BenchmarkFigure2ArpPathVsSTP(b *testing.B) {
	cfg := experiments.DefaultFigure2Config()
	cfg.Pings = 20
	var rows []experiments.Figure2Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunFigure2(cfg)
	}
	var ap, st time.Duration
	for _, r := range rows {
		if r.Profile != topo.ProfileSlowDiagonal {
			continue
		}
		switch r.Protocol {
		case topo.ARPPath:
			ap = r.RTTs.Mean()
		case topo.STP:
			st = r.RTTs.Mean()
		}
	}
	b.ReportMetric(float64(ap.Microseconds()), "arppath-rtt-µs")
	b.ReportMetric(float64(st.Microseconds()), "stp-rtt-µs")
	if ap > 0 {
		b.ReportMetric(float64(st)/float64(ap), "stp/arppath-ratio")
	}
}

// BenchmarkFigure3PathRepair regenerates Figure 3: video streaming under
// successive link failures. Reported metrics: the worst per-failure
// repair interruption under ARP-Path and the total stall.
func BenchmarkFigure3PathRepair(b *testing.B) {
	cfg := experiments.DefaultFigure3Config()
	cfg.StreamSize = 8 << 20
	var res *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFigure3(cfg, topo.ARPPath)
	}
	var worst time.Duration
	for _, f := range res.Failures {
		if f.RepairTime > worst {
			worst = f.RepairTime
		}
	}
	b.ReportMetric(float64(worst.Milliseconds()), "worst-repair-ms")
	b.ReportMetric(float64(res.Report.TotalStall.Milliseconds()), "total-stall-ms")
	b.ReportMetric(float64(len(res.Failures)), "failures")
}

// BenchmarkFigure3STPBaseline runs the same scenario under 802.1D for the
// contrast column of Figure 3 (one failure; default timers).
func BenchmarkFigure3STPBaseline(b *testing.B) {
	cfg := experiments.DefaultFigure3Config()
	cfg.StreamSize = 8 << 20
	cfg.FailureTimes = cfg.FailureTimes[:1]
	var res *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		res = experiments.RunFigure3(cfg, topo.STP)
	}
	if len(res.Failures) > 0 {
		b.ReportMetric(float64(res.Failures[0].RepairTime.Milliseconds()), "reconvergence-ms")
	}
}

// BenchmarkTableProperties regenerates T1: loop freedom and no blocked
// links on random topologies.
func BenchmarkTableProperties(b *testing.B) {
	var rows []experiments.T1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunT1Properties(1, 4)
	}
	var copies, bound uint64
	var stpBlocked int
	for _, r := range rows {
		copies += r.FloodCopies
		bound += r.CopyBound + uint64(r.Bridges)
		stpBlocked += r.STPBlocked
	}
	b.ReportMetric(float64(copies)/float64(bound), "flood/bound")
	b.ReportMetric(float64(stpBlocked), "stp-blocked-ports")
}

// BenchmarkTableLoadDistribution regenerates T2: link usage of concurrent
// flows on a fat tree, ARP-Path vs STP.
func BenchmarkTableLoadDistribution(b *testing.B) {
	var ap, st *experiments.T2Result
	for i := 0; i < b.N; i++ {
		ap = experiments.RunT2Load(1, topo.ARPPath)
		st = experiments.RunT2Load(1, topo.STP)
	}
	b.ReportMetric(float64(ap.UsedLinks), "arppath-links")
	b.ReportMetric(float64(st.UsedLinks), "stp-links")
	b.ReportMetric(ap.Jain, "arppath-jain")
	b.ReportMetric(st.Jain, "stp-jain")
}

// BenchmarkTableProxyScaling regenerates T3: ARP broadcast suppression by
// the in-switch proxy.
func BenchmarkTableProxyScaling(b *testing.B) {
	var rows []experiments.T3Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunT3Proxy(1, []int{8})
	}
	var off, on float64
	for _, r := range rows {
		if r.Proxy {
			on = r.PerARP
		} else {
			off = r.PerARP
		}
	}
	b.ReportMetric(off, "broadcasts-per-arp")
	b.ReportMetric(on, "broadcasts-per-arp-proxied")
	if on > 0 {
		b.ReportMetric(off/on, "suppression-ratio")
	}
}

// BenchmarkTableRepairAblation regenerates T4: recovery time of ARP-Path
// repair vs STP reconvergence vs no repair at all.
func BenchmarkTableRepairAblation(b *testing.B) {
	var rows []experiments.T4Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunT4Repair(1)
	}
	for _, r := range rows {
		switch r.Variant {
		case "arp-path (repair on)":
			b.ReportMetric(float64(r.RepairTime.Milliseconds()), "arppath-repair-ms")
		case "stp (default timers)":
			b.ReportMetric(float64(r.RepairTime.Milliseconds()), "stp-repair-ms")
		case "stp (fast timers)":
			b.ReportMetric(float64(r.RepairTime.Milliseconds()), "stp-fast-repair-ms")
		}
	}
}

// BenchmarkTableLockWindow regenerates T5: discovery health vs the lock
// window on a high-delay ring.
func BenchmarkTableLockWindow(b *testing.B) {
	var rows []experiments.T5Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunT5LockWindow(1, []time.Duration{time.Millisecond, 200 * time.Millisecond})
	}
	b.ReportMetric(float64(rows[0].Repairs), "short-window-repairs")
	b.ReportMetric(float64(rows[1].Repairs), "default-window-repairs")
	b.ReportMetric(float64(rows[0].Lost), "short-window-lost")
}

// BenchmarkTableStateSize regenerates T6: forwarding state per bridge,
// ARP-Path vs a learning FIB under STP.
func BenchmarkTableStateSize(b *testing.B) {
	var rows []experiments.T6Row
	for i := 0; i < b.N; i++ {
		rows = experiments.RunT6TableSize(1, []int{16})
	}
	b.ReportMetric(rows[0].ARPPathMean, "arppath-entries")
	b.ReportMetric(rows[0].STPMean, "stp-entries")
}
