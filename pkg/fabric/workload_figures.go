package fabric

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/layers"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/stp"
	"repro/internal/topo"
)

// The paper's three figures, each the run of one kind at the Spec's seed
// and shard count: figure1 (the discovery race), figure2-demo (latency
// against STP) and path-repair (Figure 3, streaming across cable pulls).

// figure1Result is the paper's Figure 1: which port of every bridge
// locked S's address during the broadcast race (the figure's bubbles),
// the confirmed S–D path, and how long discovery took.
type figure1Result struct {
	// locks maps bridge name → the port (as "name[index]", peer in
	// parentheses) that locked S during the ARP Request flood.
	locks map[string]string
	// path is the node sequence the first data frame S→D traverses.
	path []string
	// discovery is S's ARP request→reply round trip — the path set-up
	// cost, which ARP-Path hides inside an exchange hosts perform anyway
	// (§2.2 "zero configuration").
	discovery time.Duration
}

// figure1 runs the discovery walkthrough on the Figure 1 topology.
func figure1(spec Spec) (*figure1Result, error) {
	n, err := topo.Build(spec.paperOptions(topo.ARPPath), topo.TopologySpec{Family: "figure1"})
	if err != nil {
		return nil, err
	}
	s, d := n.Host("S"), n.Host("D")

	res := &figure1Result{locks: make(map[string]string)}
	n.Engine.At(n.Now(), func() {
		start := s.Now()
		// Resolving D's address triggers exactly the ARP exchange of
		// Figure 1; hosts are unmodified (transparency). The reply lands
		// on S's engine, whose clock is S's own on a sharded fabric.
		s.Resolve(d.IP(), func(_ layers.MAC, err error) {
			if err == nil {
				res.discovery = s.Now() - start
			}
		})
	})
	n.RunFor(50 * time.Millisecond)

	// Read the bubbles: every bridge's entry for S.
	for _, br := range n.Bridges {
		b := br.(*core.Bridge)
		if e, ok := b.EntryFor(s.MAC()); ok {
			res.locks[b.Name()] = fmt.Sprintf("%s (toward %s, %s)",
				e.Port, e.Port.Peer().Node().Name(), e.State)
		}
	}

	// Trace the path of a data-plane probe S→D.
	hops := traceEchoRequests(n.Network, s.IP(), d.IP())
	n.Engine.At(n.Now(), func() {
		s.Ping(d.IP(), 0, time.Second, func(host.PingResult) {})
	})
	n.RunFor(50 * time.Millisecond)
	res.path = *hops
	return res, nil
}

// runFigure1 renders Figure 1: the lock table, then the discovery time and
// the confirmed path (free text, so -csv output carries the table alone).
func (r *Runner) runFigure1(spec Spec, out io.Writer, res *Result) error {
	f, err := figure1(spec)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 1 — ARP-Path discovery from S to D (lock positions)",
		"bridge", "port locking S")
	for _, name := range slices.Sorted(maps.Keys(f.locks)) {
		t.AddRow(name, f.locks[name])
	}
	r.emit(out, res, t)
	if !r.CSV {
		fmt.Fprintf(out, "discovery %v\npath %s\n", f.discovery, strings.Join(f.path, "→"))
	}
	return nil
}

// traceEchoRequests records the bridge path of ICMP echo requests from src
// to dst: the nodes that receive them, in order. Attach it before the
// probe is sent.
func traceEchoRequests(net *netsim.Network, src, dst layers.Addr4) *[]string {
	match := func(frame []byte) bool {
		var eth layers.Ethernet
		if eth.DecodeFromBytes(frame) != nil || eth.EtherType != layers.EtherTypeIPv4 {
			return false
		}
		var ip layers.IPv4
		if ip.DecodeFromBytes(eth.Payload()) != nil || ip.Protocol != layers.IPProtoICMP {
			return false
		}
		if ip.Src != src || ip.Dst != dst {
			return false
		}
		var echo layers.ICMPEcho
		return echo.DecodeFromBytes(ip.Payload()) == nil && echo.Type == layers.ICMPEchoRequest
	}
	var hops []string
	net.Tap(func(ev netsim.TapEvent) {
		if ev.Kind != netsim.TapDeliver || !match(ev.Frame) {
			return
		}
		name := ev.To.Node().Name()
		if n := len(hops); n == 0 || hops[n-1] != name {
			hops = append(hops, name)
		}
	})
	return &hops
}

// figure2Row is one (profile, protocol) cell of the Figure 2 comparison:
// ARP-Path vs STP latency between hosts A and B on the demo testbed.
type figure2Row struct {
	profile  topo.Figure2Profile
	protocol topo.Protocol
	// firstRTT includes ARP resolution and, for ARP-Path, the path
	// discovery race.
	firstRTT time.Duration
	// rtts summarizes the steady-state pings after the first.
	rtts metrics.Distribution
	lost int
	// path is the node sequence the echo request traverses at steady
	// state.
	path []string
	// series is the per-ping latency over time — the demo UI's graph.
	series *metrics.Series
}

// figure2 runs the ARP-Path vs STP latency comparison for every delay
// profile and both protocols: a train of the workload's pings at its
// interval per cell.
func figure2(spec Spec) ([]figure2Row, error) {
	var rows []figure2Row
	for _, profile := range []topo.Figure2Profile{topo.ProfileUniform, topo.ProfileSlowDiagonal, topo.ProfileAsymmetric} {
		for _, proto := range []topo.Protocol{topo.ARPPath, topo.STP} {
			row, err := figure2Cell(spec.paperOptions(proto), spec.Workload, profile)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func figure2Cell(o topo.Options, w WorkloadSpec, profile topo.Figure2Profile) (figure2Row, error) {
	n, err := topo.Build(o, topo.TopologySpec{Family: "figure2", Profile: string(profile)})
	if err != nil {
		return figure2Row{}, err
	}
	a, b := n.Host("A"), n.Host("B")
	row := figure2Row{
		profile:  profile,
		protocol: o.Protocol,
		series:   metrics.NewSeries(fmt.Sprintf("%s/%s", o.Protocol, profile), "µs"),
	}
	hops := traceEchoRequests(n.Network, a.IP(), b.IP())

	done := false
	n.Engine.At(n.Now(), func() {
		a.PingSeries(b.IP(), w.Pings, 56, w.Interval.D(), 2*time.Second, func(results []host.PingResult) {
			for i, r := range results {
				if r.Err != nil {
					row.lost++
					continue
				}
				row.series.Add(r.Sent, float64(r.RTT)/float64(time.Microsecond))
				if i == 0 {
					row.firstRTT = r.RTT
				} else {
					row.rtts.Add(r.RTT)
				}
			}
			done = true
		})
	})
	n.RunFor(time.Duration(w.Pings)*w.Interval.D() + 10*time.Second)
	if !done {
		return row, fmt.Errorf("figure2-demo: the %s/%s ping series did not finish", o.Protocol, profile)
	}

	// Steady-state path: trace one more echo.
	*hops = nil
	n.Engine.At(n.Now(), func() {
		a.Ping(b.IP(), 56, 2*time.Second, func(host.PingResult) {})
	})
	n.RunFor(5 * time.Second)
	row.path = *hops
	return row, nil
}

// runFigure2Demo renders Figure 2 as the demo showed it on its UI: the
// latency table, the per-profile ratio and, unless CSV, each cell's
// latency over time.
func (r *Runner) runFigure2Demo(spec Spec, out io.Writer, res *Result) error {
	rows, err := figure2(spec)
	if err != nil {
		return err
	}
	t := metrics.NewTable("Figure 2 — ARP-Path vs STP, hosts A↔B on the 4-NetFPGA demo testbed",
		"profile", "protocol", "first RTT", "mean RTT", "min RTT", "max RTT", "lost", "hops", "path")
	mean := map[topo.Figure2Profile]map[topo.Protocol]time.Duration{}
	for _, row := range rows {
		t.AddRow(string(row.profile), string(row.protocol),
			row.firstRTT.Round(time.Microsecond),
			row.rtts.Mean().Round(time.Microsecond),
			row.rtts.Min().Round(time.Microsecond),
			row.rtts.Max().Round(time.Microsecond),
			row.lost, max(0, len(row.path)-1), strings.Join(row.path, "→"))
		if mean[row.profile] == nil {
			mean[row.profile] = map[topo.Protocol]time.Duration{}
		}
		mean[row.profile][row.protocol] = row.rtts.Mean()
	}
	r.emit(out, res, t)

	// The headline number per profile: how much lower ARP-Path's
	// steady-state latency is than STP's.
	t = metrics.NewTable("Figure 2 — latency ratio (STP mean RTT / ARP-Path mean RTT)",
		"profile", "arp-path", "stp", "ratio")
	for _, row := range rows {
		if row.protocol != topo.ARPPath {
			continue
		}
		ap, st := mean[row.profile][topo.ARPPath], mean[row.profile][topo.STP]
		ratio := "n/a"
		if ap > 0 {
			ratio = fmt.Sprintf("%.2fx", float64(st)/float64(ap))
		}
		t.AddRow(string(row.profile), ap.Round(time.Microsecond), st.Round(time.Microsecond), ratio)
	}
	r.emit(out, res, t)
	if !r.CSV {
		for _, row := range rows {
			fmt.Fprintln(out, row.series.ASCII(72, 8))
		}
	}
	return nil
}

// failureEvent is one injected link failure and the recovery the stream
// observed for it.
type failureEvent struct {
	link string
	// repair is the playback interruption attributed to this failure
	// (zero if the stream never noticed).
	repair time.Duration
}

// figure3Result is one protocol's run of the path-repair demo: host A
// streams video over HTTP to host B while links on the active path fail
// one after another (§3.2).
type figure3Result struct {
	protocol topo.Protocol
	failures []failureEvent
	report   *app.StreamReport
	// transfer is connection establishment to completion.
	transfer time.Duration
}

// figure3 runs the streaming-under-failures demo on the uniform Figure 2
// testbed built with o (its protocol, timers and warm-up are the run's):
// a stream of w's stream_size, cut w.Failures times, each cut 50 + 100·i
// ms after the stream starts, for at most budget (STP needs tens of
// seconds to reconverge).
func figure3(o topo.Options, w WorkloadSpec, budget time.Duration) (*figure3Result, error) {
	n, err := topo.Build(o, topo.TopologySpec{Family: "figure2", Profile: string(topo.ProfileUniform)})
	if err != nil {
		return nil, err
	}
	a, b := n.Host("A"), n.Host("B")

	res := &figure3Result{protocol: o.Protocol}
	scfg := app.DefaultStreamConfig()
	scfg.Size = w.StreamSize

	// Repair time is measured on the wire: the largest silence in stream
	// payload deliveries at the client after each failure. (The streamer's
	// stall accounting uses a human-scale threshold; ARP-Path repairs far
	// below it, which is the point of the demo.)
	meter := attachStreamMeter(n, b)

	var streamer *app.Streamer
	var finished *app.StreamReport
	start := n.Now()
	n.Engine.At(start, func() {
		streamer = app.StartStream(a, b, scfg, func(r *app.StreamReport) { finished = r })
	})

	// Schedule the successive failures: each cuts whatever link NF4 is
	// currently using toward A — i.e. the link the stream is riding,
	// exactly like pulling cables in the live demo.
	for i := range w.Failures {
		n.Engine.At(start+time.Duration(50+100*i)*time.Millisecond, func() {
			l := activeUplink(n, a.MAC())
			if l == nil || !l.Up() {
				return // stream already moved or fabric exhausted
			}
			res.failures = append(res.failures, failureEvent{link: linkName(n, l)})
			meter.failAts = append(meter.failAts, n.Now())
			l.SetUp(false)
		})
	}

	n.RunFor(budget)
	if finished == nil && streamer != nil {
		finished = streamer.Report() // partial report (stream still stuck)
	}
	res.report = finished
	if finished != nil && finished.Complete {
		res.transfer = finished.Finished - finished.Connected
	}
	// Attach the measured delivery gaps to the failure events. The last
	// window ends when the stream completed (afterwards silence is just
	// the stream being over, not an outage).
	end := n.Now()
	if finished != nil && finished.Complete {
		end = finished.Finished
	}
	repairs := meter.repairTimes(end)
	for i := range res.failures {
		if i < len(repairs) {
			res.failures[i].repair = repairs[i]
		}
	}
	return res, nil
}

// attachStreamMeter taps payload-bearing TCP-lite deliveries to client
// and returns a gapMeter fed by them.
func attachStreamMeter(n *topo.Built, client *host.Host) *gapMeter {
	meter := &gapMeter{}
	mac := client.MAC()
	n.Network.Tap(func(ev netsim.TapEvent) {
		if ev.Kind == netsim.TapDeliver && ev.To.Node() == netsim.Node(client) && isStreamData(ev.Frame, mac) {
			meter.deliveries = append(meter.deliveries, ev.At)
		}
	})
	return meter
}

// isStreamData reports whether frame is a TCP-lite segment carrying
// payload to dst, decoded down the Ethernet → IPv4 → TCPLite codec chain
// as traceEchoRequests decodes its probes.
func isStreamData(frame []byte, dst layers.MAC) bool {
	var eth layers.Ethernet
	if eth.DecodeFromBytes(frame) != nil || eth.Dst != dst || eth.EtherType != layers.EtherTypeIPv4 {
		return false
	}
	var ip layers.IPv4
	if ip.DecodeFromBytes(eth.Payload()) != nil || ip.Protocol != layers.IPProtoTCPLite {
		return false
	}
	var tcp layers.TCPLite
	return tcp.DecodeFromBytes(ip.Payload()) == nil && len(tcp.Payload()) > 0
}

// gapMeter measures stream interruptions: for each failure, the largest
// silence between payload deliveries at the client in the window from the
// failure to the next failure (or the end of the run). Frames already in
// flight past the cut still drain for a moment, so "time to first
// delivery" would under-report; the largest gap is the actual playback
// interruption.
type gapMeter struct {
	failAts    []time.Duration
	deliveries []time.Duration
}

// repairTimes computes the per-failure interruption; end bounds the last
// window.
func (m *gapMeter) repairTimes(end time.Duration) []time.Duration {
	out := make([]time.Duration, len(m.failAts))
	for i, failAt := range m.failAts {
		windowEnd := end
		if i+1 < len(m.failAts) {
			windowEnd = m.failAts[i+1]
		}
		prev := failAt
		var maxGap time.Duration
		for _, d := range m.deliveries {
			if d <= failAt {
				continue
			}
			if d > windowEnd {
				break
			}
			if gap := d - prev; gap > maxGap {
				maxGap = gap
			}
			prev = d
		}
		// Silence reaching the window end (stream never recovered there).
		if gap := windowEnd - prev; gap > maxGap {
			maxGap = gap
		}
		out[i] = maxGap
	}
	return out
}

// activeUplink returns the link NF4 currently uses to reach mac (the
// stream's A-ward direction), protocol-independently.
func activeUplink(n *topo.Built, mac layers.MAC) *netsim.Link {
	switch b := n.Bridge("NF4").(type) {
	case *core.Bridge:
		if e, ok := b.EntryFor(mac); ok {
			return e.Port.Link()
		}
	case *stp.Bridge:
		if p, ok := b.FIB().Lookup(mac, n.Now()); ok {
			return p.Link()
		}
	}
	return nil
}

// linkName finds the topology name of l.
func linkName(n *topo.Built, l *netsim.Link) string {
	for name, cand := range n.Links {
		if cand == l {
			return name
		}
	}
	return l.String()
}

// runPathRepair renders Figure 3: the streaming demo under successive
// link failures (5 min budget), beside the STP baseline, and each run's
// goodput graph.
func (r *Runner) runPathRepair(spec Spec, out io.Writer, res *Result) error {
	opts := []topo.Options{spec.paperOptions(topo.ARPPath), spec.paperOptions(topo.STP)}
	t := metrics.NewTable("Figure 3 — video streaming A→B under successive link failures",
		"protocol", "completed", "transfer time", "failures", "repair times", "total stall", "bytes")
	var reports []*app.StreamReport
	for _, o := range opts {
		f, err := figure3(o, spec.Workload, 5*time.Minute)
		if err != nil {
			return err
		}
		repairs := make([]string, len(f.failures))
		for i, e := range f.failures {
			repairs[i] = fmt.Sprintf("%s:%v", e.link, e.repair.Round(time.Microsecond))
		}
		completed, tt, stall, received := f.outcome()
		t.AddRow(string(f.protocol), completed, tt, len(f.failures), strings.Join(repairs, ", "),
			stall.Round(time.Millisecond), received)
		reports = append(reports, f.report)
	}
	r.emit(out, res, t)
	for _, rep := range reports {
		if !r.CSV && rep != nil && rep.Goodput != nil {
			fmt.Fprintln(out, rep.Goodput.ASCII(72, 8))
		}
	}
	return nil
}

// outcome is the run's completed and transfer-time cells (a transfer time
// only when complete), its total stall and the bytes the client received.
func (f *figure3Result) outcome() (completed string, transfer any, stall time.Duration, received int) {
	completed, transfer = "no", "-"
	if f.report != nil {
		stall, received = f.report.TotalStall, f.report.Received
		if f.report.Complete {
			completed, transfer = "yes", f.transfer.Round(time.Millisecond)
		}
	}
	return completed, transfer, stall, received
}
