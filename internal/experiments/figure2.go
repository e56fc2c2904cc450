package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/host"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// Figure2Row is one (profile, protocol) cell of the Figure 2 comparison:
// ARP-Path vs STP latency between hosts A and B on the demo testbed.
type Figure2Row struct {
	Profile  topo.Figure2Profile
	Protocol topo.Protocol
	// FirstRTT includes ARP resolution and, for ARP-Path, the path
	// discovery race.
	FirstRTT time.Duration
	// RTTs summarizes the steady-state pings after the first.
	RTTs metrics.Distribution
	Lost int
	// Path is the node sequence the echo request traverses at steady
	// state.
	Path []string
	// Series is the per-ping latency over time — the demo UI's graph.
	Series *metrics.Series
}

// Figure2Config tunes the experiment.
type Figure2Config struct {
	Pings    int
	Interval time.Duration
	Profiles []topo.Figure2Profile
}

// DefaultFigure2Config mirrors the demo: a short ping train per scenario.
func DefaultFigure2Config() Figure2Config {
	return Figure2Config{
		Pings:    20,
		Interval: 100 * time.Millisecond,
		Profiles: []topo.Figure2Profile{topo.ProfileUniform, topo.ProfileSlowDiagonal, topo.ProfileAsymmetric},
	}
}

// RunFigure2 runs the ARP-Path vs STP latency comparison for every
// profile and both protocols, at o's seed and shard count.
func RunFigure2(o topo.Options, cfg Figure2Config) []Figure2Row {
	var rows []Figure2Row
	for _, profile := range cfg.Profiles {
		for _, proto := range []topo.Protocol{topo.ARPPath, topo.STP} {
			rows = append(rows, runFigure2Cell(defaults(o, proto), cfg, profile))
		}
	}
	return rows
}

func runFigure2Cell(o topo.Options, cfg Figure2Config, profile topo.Figure2Profile) Figure2Row {
	proto := o.Protocol
	n := build(o, topo.TopologySpec{Family: "figure2", Profile: string(profile)})
	defer finishNet(n)
	a, b := n.Host("A"), n.Host("B")
	row := Figure2Row{
		Profile:  profile,
		Protocol: proto,
		Series:   metrics.NewSeries(fmt.Sprintf("%s/%s", proto, profile), "µs"),
	}
	tracer := TraceEchoRequests(n.Network, a.IP(), b.IP())

	done := false
	n.Engine.At(n.Now(), func() {
		a.PingSeries(b.IP(), cfg.Pings, 56, cfg.Interval, 2*time.Second, func(results []host.PingResult) {
			for i, r := range results {
				if r.Err != nil {
					row.Lost++
					continue
				}
				row.Series.Add(r.Sent, float64(r.RTT)/float64(time.Microsecond))
				if i == 0 {
					row.FirstRTT = r.RTT
				} else {
					row.RTTs.Add(r.RTT)
				}
			}
			done = true
		})
	})
	n.RunFor(time.Duration(cfg.Pings)*cfg.Interval + 10*time.Second)
	if !done {
		panic("experiments: figure 2 ping series did not finish")
	}

	// Steady-state path: trace one more echo.
	tracer.Reset()
	n.Engine.At(n.Now(), func() {
		a.Ping(b.IP(), 56, 2*time.Second, func(host.PingResult) {})
	})
	n.RunFor(5 * time.Second)
	row.Path = tracer.Hops()
	return row
}

// Figure2Table renders the comparison the demo showed on its UI.
func Figure2Table(rows []Figure2Row) *metrics.Table {
	t := metrics.NewTable("Figure 2 — ARP-Path vs STP, hosts A↔B on the 4-NetFPGA demo testbed",
		"profile", "protocol", "first RTT", "mean RTT", "min RTT", "max RTT", "lost", "hops", "path")
	for _, r := range rows {
		hops := max(0, len(r.Path)-1)
		t.AddRow(string(r.Profile), string(r.Protocol),
			r.FirstRTT.Round(time.Microsecond),
			r.RTTs.Mean().Round(time.Microsecond),
			r.RTTs.Min().Round(time.Microsecond),
			r.RTTs.Max().Round(time.Microsecond),
			r.Lost, hops, strings.Join(r.Path, "→"))
	}
	return t
}

// Figure2Speedups summarizes the headline number per profile: how much
// lower ARP-Path's steady-state latency is than STP's.
func Figure2Speedups(rows []Figure2Row) *metrics.Table {
	t := metrics.NewTable("Figure 2 — latency ratio (STP mean RTT / ARP-Path mean RTT)",
		"profile", "arp-path", "stp", "ratio")
	byProfile := map[topo.Figure2Profile]map[topo.Protocol]time.Duration{}
	for _, r := range rows {
		if byProfile[r.Profile] == nil {
			byProfile[r.Profile] = map[topo.Protocol]time.Duration{}
		}
		byProfile[r.Profile][r.Protocol] = r.RTTs.Mean()
	}
	for _, r := range rows {
		if r.Protocol != topo.ARPPath {
			continue
		}
		ap := byProfile[r.Profile][topo.ARPPath]
		st := byProfile[r.Profile][topo.STP]
		ratio := "n/a"
		if ap > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(st)/float64(ap))
		}
		t.AddRow(string(r.Profile), ap.Round(time.Microsecond), st.Round(time.Microsecond), ratio)
	}
	return t
}
