package experiments

import (
	"fmt"
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

// FailureEvent is one injected link failure and the recovery the stream
// observed for it.
type FailureEvent struct {
	At   time.Duration
	Link string
	// RepairTime is the playback interruption attributed to this failure
	// (zero if the stream never noticed).
	RepairTime time.Duration
}

// Figure3Result is one protocol's run of the path-repair demo: host A
// streams video over HTTP to host B while links on the active path fail
// one after another (§3.2).
type Figure3Result struct {
	Protocol topo.Protocol
	Failures []FailureEvent
	Report   *app.StreamReport
	// TransferTime is connection establishment to completion.
	TransferTime time.Duration
}

// Figure3Config tunes the experiment.
type Figure3Config struct {
	Seed int64
	// StreamSize is the video size in bytes.
	StreamSize int
	// FailureTimes are when to cut the link currently carrying the
	// stream, measured from stream start.
	FailureTimes []time.Duration
	// Budget bounds the run (STP needs tens of seconds to reconverge).
	Budget time.Duration
	// STPTimers selects the baseline's timer profile.
	STPTimers stp.Timers
}

// DefaultFigure3Config mirrors the demo: a clip long enough to survive
// two failures, cut while streaming.
func DefaultFigure3Config() Figure3Config {
	return Figure3Config{
		Seed:         1,
		StreamSize:   32 << 20,
		FailureTimes: []time.Duration{50 * time.Millisecond, 150 * time.Millisecond},
		Budget:       5 * time.Minute,
		STPTimers:    stp.DefaultTimers(),
	}
}

// RunFigure3 runs the streaming-under-failures demo for one protocol.
func RunFigure3(cfg Figure3Config, proto topo.Protocol) *Figure3Result {
	opts := expOptions(proto, cfg.Seed)
	if proto == topo.STP {
		// The warm-up stays the default-timer budget on purpose: the demo
		// pulls cables against a fabric that converged on standard timing.
		*opts.STP() = cfg.STPTimers
	}
	n := topo.Figure2(opts, topo.ProfileUniform)
	defer finishNet(n)
	a, b := n.Host("A"), n.Host("B")

	res := &Figure3Result{Protocol: proto}
	scfg := app.DefaultStreamConfig()
	scfg.Size = cfg.StreamSize

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
	for _, ft := range cfg.FailureTimes {
		at := start + ft
		n.Engine.At(at, func() {
			l := activeUplink(n, a.MAC())
			if l == nil || !l.Up() {
				return // stream already moved or fabric exhausted
			}
			res.Failures = append(res.Failures, FailureEvent{At: n.Now(), Link: linkName(n, l)})
			meter.onFail(n.Now())
			l.SetUp(false)
		})
	}

	n.RunFor(cfg.Budget)
	if finished == nil && streamer != nil {
		finished = streamer.Report() // partial report (stream still stuck)
	}
	res.Report = finished
	if finished != nil && finished.Complete {
		res.TransferTime = finished.Finished - finished.Connected
	}
	// Attach the measured delivery gaps to the failure events. The last
	// window ends when the stream completed (afterwards silence is just
	// the stream being over, not an outage).
	end := n.Now()
	if finished != nil && finished.Complete {
		end = finished.Finished
	}
	repairs := meter.repairTimes(end)
	for i := range res.Failures {
		if i < len(repairs) {
			res.Failures[i].RepairTime = repairs[i]
		}
	}
	return res
}

// attachStreamMeter taps payload-bearing TCP-lite deliveries to client
// and returns a gapMeter fed by them.
func attachStreamMeter(n *topo.Built, client *host.Host) *gapMeter {
	meter := &gapMeter{}
	mac := client.MAC()
	n.Network.Tap(func(ev netsim.TapEvent) {
		if ev.Kind == netsim.TapDeliver && ev.To.Node() == netsim.Node(client) && isStreamData(ev.Frame, mac) {
			meter.onDeliver(ev.At)
		}
	})
	return meter
}

// isStreamData reports whether frame is a TCP-lite segment carrying
// payload to dst, decoded down the Ethernet → IPv4 → TCPLite codec chain
// as PathTracer decodes its probes.
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

func (m *gapMeter) onFail(at time.Duration) { m.failAts = append(m.failAts, at) }

func (m *gapMeter) onDeliver(at time.Duration) { m.deliveries = append(m.deliveries, at) }

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
	br := n.Bridge("NF4")
	switch b := br.(type) {
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

// Figure3Table renders both protocols' runs side by side.
func Figure3Table(results []*Figure3Result) *metrics.Table {
	t := metrics.NewTable("Figure 3 — video streaming A→B under successive link failures",
		"protocol", "completed", "transfer time", "failures", "repair times", "total stall", "bytes")
	for _, r := range results {
		repairs := ""
		for i, f := range r.Failures {
			if i > 0 {
				repairs += ", "
			}
			repairs += fmt.Sprintf("%s:%v", f.Link, f.RepairTime.Round(time.Microsecond))
		}
		completed := "no"
		var tt any = "-"
		if r.Report != nil && r.Report.Complete {
			completed = "yes"
			tt = r.TransferTime.Round(time.Millisecond)
		}
		received := 0
		var stall time.Duration
		if r.Report != nil {
			received = r.Report.Received
			stall = r.Report.TotalStall
		}
		t.AddRow(string(r.Protocol), completed, tt, len(r.Failures), repairs,
			stall.Round(time.Millisecond), received)
	}
	return t
}
