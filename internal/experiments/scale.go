package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/metrics"
	"repro/internal/topo"
)

// The scale experiment is the reproduction's answer to the All-Path
// scalability study (PAPERS.md, arXiv:1703.08744): flood cost, repair
// churn and load balancing only get interesting at fabric sizes well
// past the paper's testbed. It builds a large random-regular fabric,
// drives many concurrent UDP conversations across it, and reports what
// the single engine and the sharded engine (DESIGN.md §8) did. The
// protocol-side numbers (delivery, events) are bit-identical at every
// shard count; the coordinator's counts are a function of (seed,
// shards). Speed is bench/perf's to measure.

// ScaleConfig parameterizes one scaling run.
type ScaleConfig struct {
	Seed    int64
	Bridges int // random-regular fabric size (even, one host per bridge)
	Degree  int // trunk degree
	Shards  int
	Flows   int           // concurrent UDP conversations
	Window  time.Duration // traffic phase length (virtual time)
}

// DefaultScaleConfig is the scale workload's default: a 256-bridge
// fabric, 64 conversations, 200ms of virtual traffic.
func DefaultScaleConfig(seed int64, shards int) ScaleConfig {
	return ScaleConfig{
		Seed: seed, Bridges: 256, Degree: 3, Shards: shards,
		Flows: 64, Window: 200 * time.Millisecond,
	}
}

// ScaleResult reports one scaling run. Everything but the coordinator's
// fields (Lookahead, Windows, Barriers, Exchanged) is a deterministic
// function of (Seed, Bridges, Degree, Flows, Window) — independent of
// Shards and GOMAXPROCS.
type ScaleResult struct {
	Config                ScaleConfig
	Bridges, Hosts, Links int
	Lookahead             time.Duration // coordinator window (0 unsharded)
	Offered, Delivered    int           // UDP datagrams
	Events                uint64        // events executed across all engines
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
	built.RunFor(cfg.Window + 10*time.Millisecond)
	built.Run()
	coord := built.Network.CoordStats()

	res := &ScaleResult{
		Config:    cfg,
		Bridges:   len(built.Bridges),
		Hosts:     len(built.Hosts),
		Links:     len(built.Links),
		Lookahead: built.Network.Lookahead(),
		Offered:   offered,
		Events:    built.Network.Processed() - eventsBefore,
		Windows:   coord.Windows - coordBefore.Windows,
		Barriers:  coord.Barriers - coordBefore.Barriers,
		Exchanged: coord.Exchanged - coordBefore.Exchanged,
	}
	for _, s := range sinks {
		res.Delivered += s.Count()
	}
	return res
}

// ScaleTable renders the shard-invariant half of scaling runs: every
// cell but the shards column is bit-identical for a given seed at any
// shard count and GOMAXPROCS.
func ScaleTable(rs []*ScaleResult) *metrics.Table {
	t := metrics.NewTable("Scaling fabric (random-regular, one host per bridge) — deterministic outputs",
		"bridges", "links", "shards", "flows", "offered", "delivered", "events")
	for _, r := range rs {
		t.AddRow(r.Bridges, r.Links, r.Config.Shards, r.Config.Flows, r.Offered, r.Delivered, r.Events)
	}
	return t
}

// ScaleCoordTable renders the coordinator's counts of the same runs, one
// row per shard count: deterministic for a given (seed, shards), and zero
// on the single engine.
func ScaleCoordTable(rs []*ScaleResult) *metrics.Table {
	t := metrics.NewTable("Scaling fabric — shard coordinator over the traffic phase",
		"bridges", "shards", "lookahead", "windows", "barriers", "exchanged")
	for _, r := range rs {
		t.AddRow(r.Bridges, r.Config.Shards, r.Lookahead, r.Windows, r.Barriers, r.Exchanged)
	}
	return t
}
