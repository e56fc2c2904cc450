package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// The scale experiment is the reproduction's answer to the All-Path
// scalability study (PAPERS.md, arXiv:1703.08744): flood cost, repair
// churn and load balancing only get interesting at fabric sizes a
// single-threaded event loop cannot reach in reasonable wall-clock. It
// builds a large random-regular fabric, drives many concurrent UDP
// conversations across it, and measures the simulator's wall-clock
// throughput — single engine versus the sharded engine (DESIGN.md §8).
// The protocol-side numbers (delivery, events, trace fingerprint) are
// bit-identical at every shard count; only the wall clock may differ.

// ScaleConfig parameterizes one scaling run.
type ScaleConfig struct {
	Seed    int64
	Bridges int // random-regular fabric size (even, one host per bridge)
	Degree  int // trunk degree
	Shards  int
	Flows   int           // concurrent UDP conversations
	Window  time.Duration // traffic phase length (virtual time)
	// Trace attaches the fingerprint tap. It costs throughput (every tap
	// is observed and, sharded, buffered + merged), so benchmark runs
	// leave it off and determinism runs turn it on.
	Trace bool
}

// DefaultScaleConfig is the fabricbench default: a 256-bridge fabric, 64
// conversations, 200ms of virtual traffic.
func DefaultScaleConfig(seed int64, shards int) ScaleConfig {
	return ScaleConfig{
		Seed: seed, Bridges: 256, Degree: 3, Shards: shards,
		Flows: 64, Window: 200 * time.Millisecond,
	}
}

// ScaleResult reports one scaling run. Everything except Wall and the
// derived rates is a deterministic function of (Seed, Bridges, Degree,
// Flows, Window) — independent of Shards and GOMAXPROCS.
type ScaleResult struct {
	Config                ScaleConfig
	Bridges, Hosts, Links int
	Lookahead             time.Duration // coordinator window (0 unsharded)
	Offered, Delivered    int           // UDP datagrams
	Events                uint64        // events executed across all engines
	Fingerprint           uint64        // merged-trace digest (Trace runs)
	TraceEvents           uint64        // tap events folded into the fingerprint
	Wall                  time.Duration
	EventsPerSec          float64
	FramesPerSec          float64 // delivered datagrams per wall second
	// Coordination overhead over the traffic phase (zero unsharded),
	// deterministic for a given (seed, shards).
	Windows   uint64 // lookahead windows the coordinator ran
	Barriers  uint64 // control events run with all shards paused
	Exchanged uint64 // cross-shard arrivals moved between engines
}

// RunScale executes one scaling run.
func RunScale(cfg ScaleConfig) *ScaleResult {
	opts := topo.DefaultOptions(topo.ARPPath, cfg.Seed)
	opts.Shards = cfg.Shards
	built := topo.RandomRegular(opts, cfg.Bridges, cfg.Degree)
	defer finishNet(built)

	var fp *netsim.TapFingerprint
	if cfg.Trace {
		fp = netsim.NewTapFingerprint()
		built.Network.Tap(fp.Observe)
	}

	// Draw the conversation pairs from a plan RNG, independent of the
	// build stream, so the traffic matrix is a function of the seed alone.
	plan := rand.New(rand.NewSource(cfg.Seed * 7919))
	type flow struct{ src, dst int }
	flows := make([]flow, 0, cfg.Flows)
	for len(flows) < cfg.Flows {
		s, d := plan.Intn(cfg.Bridges), plan.Intn(cfg.Bridges)
		if s != d {
			flows = append(flows, flow{s, d})
		}
	}
	hostOf := func(i int) *host.Host { return built.Host(fmt.Sprintf("H%d", i+1)) }

	// Establish every conversation's path with one ARP-initiated ping.
	for _, f := range flows {
		src, dst := hostOf(f.src), hostOf(f.dst)
		built.Engine.At(built.Now(), func() {
			src.Ping(dst.IP(), 0, time.Second, func(host.PingResult) {})
		})
	}
	built.RunFor(2 * time.Second)

	// Traffic phase: every conversation streams concurrently.
	const interval = 100 * time.Microsecond
	count := int(cfg.Window / interval)
	offered := 0
	sinks := make([]*app.Sink, len(flows))
	port := uint16(9000)
	for i, f := range flows {
		port++
		p := port
		sinks[i] = app.NewSink(hostOf(f.dst), p)
		src, dstIP := hostOf(f.src), hostOf(f.dst).IP()
		offered += count
		built.Engine.At(built.Now(), func() {
			app.StartFlow(src, app.FlowConfig{
				DstIP: dstIP, DstPort: p, SrcPort: p,
				PayloadSize: 512, Interval: interval, Count: count,
			}, nil)
		})
	}

	eventsBefore := built.Network.Processed()
	coordBefore := built.Network.CoordStats()
	start := time.Now() //fabriclint:wallclock measures wall speedup of the same virtual workload; traces are compared separately
	built.RunFor(cfg.Window + 10*time.Millisecond)
	built.Run()
	wall := time.Since(start)
	coord := built.Network.CoordStats()

	res := &ScaleResult{
		Config:    cfg,
		Bridges:   len(built.Bridges),
		Hosts:     len(built.Hosts),
		Links:     len(built.Links),
		Lookahead: built.Network.Lookahead(),
		Offered:   offered,
		Events:    built.Network.Processed() - eventsBefore,
		Wall:      wall,
		Windows:   coord.Windows - coordBefore.Windows,
		Barriers:  coord.Barriers - coordBefore.Barriers,
		Exchanged: coord.Exchanged - coordBefore.Exchanged,
	}
	for _, s := range sinks {
		res.Delivered += s.Count()
	}
	if fp != nil {
		res.Fingerprint = fp.Sum()
		res.TraceEvents = fp.Events()
	}
	if wall > 0 {
		res.EventsPerSec = float64(res.Events) / wall.Seconds()
		res.FramesPerSec = float64(res.Delivered) / wall.Seconds()
	}
	return res
}

// ScaleTable renders the deterministic half of scaling runs: every cell
// is bit-identical for a given seed at any shard count and GOMAXPROCS.
// Wall-clock rates are reported separately (ScaleBenchLine) precisely
// because they are the one machine-dependent output.
func ScaleTable(rs []*ScaleResult) *metrics.Table {
	t := metrics.NewTable("Scaling fabric (random-regular, one host per bridge) — deterministic outputs",
		"bridges", "links", "shards", "flows", "offered", "delivered", "events", "trace events", "fingerprint")
	for _, r := range rs {
		fpCell := "-"
		if r.TraceEvents > 0 {
			fpCell = fmt.Sprintf("%#016x", r.Fingerprint)
		}
		t.AddRow(r.Bridges, r.Links, r.Config.Shards, r.Config.Flows, r.Offered, r.Delivered, r.Events, r.TraceEvents, fpCell)
	}
	return t
}

// ScaleBenchLine renders one run's wall-clock figures and coordinator
// counts for stderr, ending with the GOMAXPROCS the process ran at. The
// simulation runs on one goroutine at any value; the runtime's own work
// (GC) is what another thread can take off it.
func ScaleBenchLine(r *ScaleResult) string {
	return fmt.Sprintf("scale: bridges=%d shards=%d lookahead=%v wall=%v events/s=%.0f frames/s=%.0f windows=%d barriers=%d exchanged=%d gomaxprocs=%d",
		r.Bridges, r.Config.Shards, r.Lookahead, r.Wall.Round(time.Millisecond), r.EventsPerSec, r.FramesPerSec,
		r.Windows, r.Barriers, r.Exchanged, runtime.GOMAXPROCS(0))
}
