package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// The three unicast workloads share this file: constant-bit-rate UDP
// flows over established ARP-Path paths on a random-regular fabric. They
// differ in fabric size (cache-resident vs not) and in shard count
// (single engine vs the netsim coordinator).
//
// Traffic is offered in rounds: every flow sends a fixed train, the next
// round starts where the last train ends, so the offered load is one
// continuous CBR stream cut at round boundaries. A run always completes
// the round it is in and then drains, so offered == delivered is checkable
// at any run length, and the counts at the end of round pinRounds are a
// function of the seed alone.

type unicastSize struct {
	bridges, degree, flows int
	// hops is the number of bridges every flow's path crosses. Flow
	// endpoints are drawn from the seed among the host pairs whose fastest
	// path has exactly this length, so every seed offers the same work per
	// frame and the rate is comparable across seeds.
	hops        int
	shards      int
	quantum     time.Duration // virtual time advanced per timed call
	roundQuanta int           // timed calls per round
	pinRounds   int           // rounds whose cumulative counts are pinned
	setupReps   int           // set-ups per run; setup_s is their median
	// tracedRounds is the length of each segment (untraced reference,
	// then tapped) of the traced run: fixed work, so its counts are exact.
	tracedRounds int
}

const (
	// fabricSeed wires every seeded fabric of the benchmark. The fabric is
	// the system's configuration, fixed like the fat tree of pump_forward;
	// --seed draws the traffic on it. A seed-dependent wiring would make
	// the work per op a function of the seed — at two shards the
	// coordinator's window is the shortest boundary link's delay, which
	// moved the rate by a third from seed to seed.
	fabricSeed = 1

	flowInterval = 100 * time.Microsecond
	flowPayload  = 512
	// discoveryGap spaces the path-establishing pings so no two discovery
	// floods overlap: each race is then won by the fastest path of an idle
	// fabric, which is what pickPairs predicts.
	discoveryGap = time.Millisecond
)

func unicast(name string, sz unicastSize) workload {
	w := workload{
		name:   name,
		timed:  func(cfg runConfig) (*outcome, error) { return unicastTimed(cfg, sz) },
		traced: func(cfg runConfig, o *outcome, tr *tracer) error { return unicastTraced(cfg, sz, o, tr) },
	}
	if sz.shards > 1 {
		// One OS thread for all shards: the coordinator's own cost
		// (barrier, exchange, worker hand-off) without the host's
		// cross-core wake latency, which on a shared 2-vCPU machine moved
		// this workload's rate between 37k and 108k frames/s from one
		// minute to the next (README, rulings). The traced run adds a pass
		// at two threads as a per-layer reading.
		timed, traced := w.timed, w.traced
		w.timed = func(cfg runConfig) (*outcome, error) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			o, err := timed(cfg)
			if o != nil {
				o.gomaxprocs = 1
			}
			return o, err
		}
		w.traced = func(cfg runConfig, o *outcome, tr *tracer) error {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			o.gomaxprocs = 1
			return traced(cfg, o, tr)
		}
	}
	return w
}

type flowPair struct{ src, dst *host.Host }

// unicastFabric is a built, warmed fabric with its flows and sinks.
type unicastFabric struct {
	sz      unicastSize
	built   *topo.Built
	flows   []flowPair
	sinks   []*app.Sink
	srcPort uint16
	offered int64
	buildS  float64 // topology build + partition
	warmS   float64 // pair choice + path discovery
}

func setupUnicast(seed int64, sz unicastSize, tr *tracer) (*unicastFabric, error) {
	f := &unicastFabric{sz: sz, srcPort: 20000}
	start := time.Now()
	tr.in("topo.build", func() {
		opts := topo.DefaultOptions(topo.ARPPath, fabricSeed)
		opts.Shards = sz.shards
		f.built = topo.RandomRegular(opts, sz.bridges, sz.degree)
	})
	f.buildS = time.Since(start).Seconds()

	start = time.Now()
	var err error
	tr.in("topo.warmup", func() { err = f.warm(seed) })
	f.warmS = time.Since(start).Seconds()
	return f, err
}

// warm draws the flow endpoints from the seed and establishes every path
// with one ARP-initiated ping.
func (f *unicastFabric) warm(seed int64) error {
	pairs, err := pickPairs(f.built, rand.New(rand.NewSource(seed*7919)), f.sz.flows, f.sz.hops)
	if err != nil {
		return err
	}
	f.flows = pairs
	answered := make([]bool, len(pairs))
	now := f.built.Now()
	for i, p := range pairs {
		f.built.Engine.At(now+time.Duration(i)*discoveryGap, func() {
			p.src.Ping(p.dst.IP(), 0, time.Second, func(r host.PingResult) { answered[i] = r.Err == nil })
		})
	}
	f.built.RunFor(time.Duration(len(pairs))*discoveryGap + 2*time.Second)
	for i, ok := range answered {
		if !ok {
			return fmt.Errorf("path discovery %s -> %s failed", pairs[i].src.Name(), pairs[i].dst.Name())
		}
	}
	f.sinks = make([]*app.Sink, len(pairs))
	for i, p := range pairs {
		f.sinks[i] = app.NewSink(p.dst, uint16(9000+i))
	}
	return nil
}

func (f *unicastFabric) delivered() int64 {
	var n int64
	for _, s := range f.sinks {
		n += int64(s.Count())
	}
	return n
}

// round offers one train per flow and advances the fabric through it in
// timed quanta, appending one sample per quantum.
func (f *unicastFabric) round(qs []quantum) ([]quantum, error) {
	count := int(time.Duration(f.sz.roundQuanta) * f.sz.quantum / flowInterval)
	if int(f.srcPort)+len(f.flows) > 65000 {
		return qs, fmt.Errorf("out of source ports after %d datagrams", f.offered)
	}
	for i, p := range f.flows {
		f.srcPort++
		cfg := app.FlowConfig{
			DstIP: p.dst.IP(), DstPort: uint16(9000 + i), SrcPort: f.srcPort,
			PayloadSize: flowPayload, Interval: flowInterval, Count: count,
		}
		f.built.Engine.At(f.built.Now(), func() { app.StartFlow(p.src, cfg, nil) })
		f.offered += int64(count)
	}
	prev := f.delivered()
	for q := 0; q < f.sz.roundQuanta; q++ {
		start := time.Now()
		f.built.RunFor(f.sz.quantum)
		wall := time.Since(start)
		d := f.delivered()
		qs = append(qs, quantum{wall: wall, ops: d - prev})
		prev = d
	}
	return qs, nil
}

// finish drains the fabric and checks the invariants every seed must
// hold: every offered datagram delivered, no pooled frame still live.
func (f *unicastFabric) finish(o *outcome) {
	f.built.Run()
	o.attempted += f.offered
	if d := f.delivered(); d != f.offered {
		o.failed += f.offered - d
		o.problemf("delivered %d of %d offered datagrams", d, f.offered)
	}
	if live := f.built.LiveFrames(); live != 0 {
		o.problemf("%d frames still live after drain", live)
	}
}

func unicastTimed(cfg runConfig, sz unicastSize) (*outcome, error) {
	o := newOutcome()
	f, setupS, err := medianSetup(sz.setupReps, func() (*unicastFabric, error) { return setupUnicast(cfg.seed, sz, nil) }, nil)
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS

	var qs []quantum
	events0 := f.built.Processed()
	deadline := time.Now().Add(seconds(cfg.seconds))
	for r := 0; r < sz.pinRounds || time.Now().Before(deadline); r++ {
		if qs, err = f.round(qs); err != nil {
			return nil, err
		}
		if r+1 == sz.pinRounds {
			o.exact["pin.offered"] = f.offered
			o.exact["pin.delivered"] = f.delivered()
			o.exact["pin.events"] = int64(f.built.Processed() - events0)
		}
	}
	f.finish(o)
	o.metrics["ops_per_sec"] = batchRate(qs)
	return o, nil
}

// segment is one fixed-work stretch of the traced run with the counters
// read at its two ends.
type segment struct {
	qs        []quantum
	wall      time.Duration
	events    uint64
	delivered int64
	coord     netsim.CoordStats
	bridges   bridgeCounts
	mem       memDelta
}

func (f *unicastFabric) segment(tr *tracer, name string, rounds int) (segment, error) {
	var s segment
	var err error
	id := tr.begin(name)
	defer tr.end(id)
	events0, coord0, br0, d0 := f.built.Processed(), f.built.CoordStats(), sumBridges(f.built.Bridges), f.delivered()
	mem0 := readMem()
	start := time.Now()
	for r := 0; r < rounds && err == nil; r++ {
		tr.in(fmt.Sprintf("slice[%d]", r), func() { s.qs, err = f.round(s.qs) })
	}
	s.wall = time.Since(start)
	s.mem = readMem().since(mem0)
	coord1 := f.built.CoordStats()
	s.events = f.built.Processed() - events0
	s.delivered = f.delivered() - d0
	s.coord = netsim.CoordStats{
		Windows: coord1.Windows - coord0.Windows, Barriers: coord1.Barriers - coord0.Barriers,
		Exchanged: coord1.Exchanged - coord0.Exchanged, Wakes: coord1.Wakes - coord0.Wakes,
		WakeNS: coord1.WakeNS - coord0.WakeNS,
	}
	s.bridges = sumBridges(f.built.Bridges).sub(br0)
	return s, err
}

// tapCounter is what the traced run attaches to a network: the trace
// fingerprint and a per-kind event count.
type tapCounter struct {
	fp     *netsim.TapFingerprint
	byKind [8]uint64
}

func attachTaps(n *netsim.Network) *tapCounter {
	tc := &tapCounter{fp: netsim.NewTapFingerprint()}
	n.Tap(tc.fp.Observe)
	n.Tap(func(ev netsim.TapEvent) { tc.byKind[ev.Kind&7]++ })
	return tc
}

// record writes the tap's exact counts. On established paths nothing may
// be dropped — not at a queue, not at a down link, not by loss.
func (tc *tapCounter) record(o *outcome) {
	sends, delivers := tc.byKind[netsim.TapSend], tc.byKind[netsim.TapDeliver]
	o.exact["trace.fingerprint"] = int64(tc.fp.Sum())
	o.exact["trace.tap_events"] = int64(tc.fp.Events())
	o.exact["trace.tap_sends"] = int64(sends)
	o.exact["trace.tap_delivers"] = int64(delivers)
	if drops := tc.fp.Events() - sends - delivers; drops != 0 {
		o.problemf("%d frames dropped on established paths", drops)
	}
}

// tracedPass is the traced run's work on one fabric: an untraced
// reference segment, then the same amount of work with the taps attached.
type tracedPass struct {
	f                *unicastFabric
	untraced, tapped segment
	taps             *tapCounter
}

func unicastPass(seed int64, sz unicastSize, tr *tracer, o *outcome) (*tracedPass, error) {
	p := &tracedPass{}
	var err error
	id := tr.begin("setup")
	p.f, err = setupUnicast(seed, sz, tr)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("timed")
	if p.untraced, err = p.f.segment(tr, "untraced", sz.tracedRounds); err == nil {
		p.taps = attachTaps(p.f.built.Network)
		p.tapped, err = p.f.segment(tr, "traced", sz.tracedRounds)
	}
	tr.end(id)
	if err != nil {
		return nil, err
	}
	tr.in("teardown", func() { p.f.finish(o) })
	return p, nil
}

func unicastTraced(cfg runConfig, sz unicastSize, o *outcome, tr *tracer) error {
	p, err := unicastPass(cfg.seed, sz, tr, o)
	if err != nil {
		return err
	}
	u := p.untraced
	o.exact["seg.events"] = int64(u.events)
	o.exact["seg.delivered"] = u.delivered
	o.exact["seg.forwarded"] = int64(u.bridges.forwarded)
	p.taps.record(o)
	o.exact["coord.windows"] = int64(u.coord.Windows)
	o.exact["coord.exchanged"] = int64(u.coord.Exchanged)

	m := o.metrics
	m["sim.events"] = float64(u.events)
	m["sim.events_per_frame"] = float64(u.events) / float64(u.delivered)
	m["sim.ns_per_event"] = float64(u.wall.Nanoseconds()) / float64(u.events)
	m["netsim.tap_events"] = float64(p.taps.fp.Events())
	m["netsim.live_frames_end"] = float64(p.f.built.LiveFrames())
	m["trace_overhead_pct"] = overheadPct(nsPerOp(u.qs), nsPerOp(p.tapped.qs))
	opTimeMetrics(o, perOpMicros(u.qs))
	m["netsim.coord.windows"] = float64(u.coord.Windows)
	m["netsim.coord.barriers"] = float64(u.coord.Barriers)
	m["netsim.coord.exchanged"] = float64(u.coord.Exchanged)
	if u.coord.Windows > 0 {
		m["netsim.coord.wall_ns_per_window"] = float64(u.wall.Nanoseconds()) / float64(u.coord.Windows)
		m["netsim.coord.wake_ns_per_window"] = float64(u.coord.WakeNS) / float64(u.coord.Windows)
	}
	coreMetrics(m, u.bridges)
	u.mem.metrics(m, u.delivered)
	m["topo.build_ms"] = p.f.buildS * 1e3
	m["topo.warmup_ms"] = p.f.warmS * 1e3
	tr.in("topo.partition", func() { m["topo.partition_ms"] = partitionMS(sz) })

	if sz.shards > 1 {
		// The same seed at one shard: the sharded run must have delivered
		// the same frames in the same order (equal fingerprints), and the
		// ratio of the two rates is the coordinator's efficiency.
		single := sz
		single.shards = 1
		ref, err := unicastPass(cfg.seed, single, tr, o)
		if err != nil {
			return err
		}
		if a, b := p.taps.fp.Sum(), ref.taps.fp.Sum(); a != b || p.taps.fp.Events() != ref.taps.fp.Events() {
			o.problemf("trace fingerprint at %d shards %#x differs from %#x at one shard", sz.shards, a, b)
		}
		if u.events != ref.untraced.events || u.delivered != ref.untraced.delivered {
			o.problemf("events/delivered at %d shards (%d/%d) differ from one shard (%d/%d)",
				sz.shards, u.events, u.delivered, ref.untraced.events, ref.untraced.delivered)
		}
		m["netsim.coord.shard_efficiency"] = nsPerOp(ref.untraced.qs) / nsPerOp(u.qs)

		// What a second core buys, or costs: the same shards on two
		// threads. A reading, not a gate — it swings with the host.
		procs := runtime.GOMAXPROCS(min(runtime.NumCPU(), sz.shards))
		par, err := unicastPass(cfg.seed, sz, tr, o)
		runtime.GOMAXPROCS(procs)
		if err != nil {
			return err
		}
		m["netsim.coord.parallel_efficiency"] = nsPerOp(ref.untraced.qs) / nsPerOp(par.untraced.qs)
		if w := par.untraced.coord.Windows; w > 0 {
			m["netsim.coord.parallel_wake_ns_per_window"] = float64(par.untraced.coord.WakeNS) / float64(w)
		}
	}

	scheduleRunD1 := runMicros(tr, m)
	// The ledger: how much of the measured wall time per frame the named
	// micro lines explain. A frame crosses `hops` bridges (each hop_ns is
	// one bridge decision plus one link), one more link, one host send,
	// and pays the event queue's depth cost on each of its events.
	perFrame := float64(u.bridges.forwarded)/float64(u.delivered)*m["core.micro.hop_ns"] +
		m["netsim.micro.link_frame_ns"] + m["host.micro.udp_send_ns"] +
		m["sim.events_per_frame"]*max(0, m["sim.micro.schedule_run_ns_d64"]-scheduleRunD1)
	m["ledger.coverage_pct"] = 100 * perFrame / nsPerOp(u.qs)
	return nil
}

// partitionMS is the build time the partitioner adds: the same fabric
// built at two shards minus built at one, the quicker of two builds each.
func partitionMS(sz unicastSize) float64 {
	build := func(shards int) float64 {
		opts := topo.DefaultOptions(topo.ARPPath, fabricSeed)
		opts.Shards = shards
		best := 0.0
		for r := 0; r < 2; r++ {
			start := time.Now()
			topo.RandomRegular(opts, sz.bridges, sz.degree)
			if ms := time.Since(start).Seconds() * 1e3; r == 0 || ms < best {
				best = ms
			}
		}
		return best
	}
	return max(0, build(2)-build(1))
}

// --- choosing flows of equal path length --------------------------------

type edge struct {
	to     int
	weight time.Duration
}

type distItem struct {
	node int
	dist time.Duration
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// pathHops returns, for every bridge, how many bridges the fastest path
// from bridge src crosses (src included). "Fastest" is what an ARP
// discovery flood over an idle fabric finds: per link, the minimum-size
// frame's serialization plus the propagation delay.
func pathHops(adj [][]edge, src int) []int {
	const inf = time.Duration(1<<63 - 1)
	dist := make([]time.Duration, len(adj))
	hops := make([]int, len(adj))
	for i := range dist {
		dist[i] = inf
	}
	dist[src], hops[src] = 0, 1
	h := &distHeap{{src, 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.dist > dist[it.node] {
			continue
		}
		for _, e := range adj[it.node] {
			if d := it.dist + e.weight; d < dist[e.to] {
				dist[e.to], hops[e.to] = d, hops[it.node]+1
				heap.Push(h, distItem{e.to, d})
			}
		}
	}
	return hops
}

// pickPairs draws `flows` host pairs whose fastest path crosses exactly
// `hops` bridges. Hosts are H<i> on bridge i in every host-per-bridge
// family, so the bridge graph decides. No host serves two flows: a host
// that floods twice can win its two races over different equal-cost paths,
// and the bridges where they differ then drop its unicasts as arriving on
// the wrong port — a property of the protocol this workload, which
// measures established paths, stays clear of.
func pickPairs(built *topo.Built, rng *rand.Rand, flows, hops int) ([]flowPair, error) {
	index := make(map[netsim.Node]int, len(built.Bridges))
	for i, br := range built.Bridges {
		index[br] = i
	}
	adj := make([][]edge, len(built.Bridges))
	for _, l := range built.Network.Links() {
		a, aok := index[l.A().Node()]
		b, bok := index[l.B().Node()]
		if !aok || !bok {
			continue // host access link
		}
		c := l.Config()
		w := c.Delay + time.Duration(layers.WireBytes(0))*8*time.Second/time.Duration(c.Rate)
		adj[a] = append(adj[a], edge{b, w})
		adj[b] = append(adj[b], edge{a, w})
	}
	used := make([]bool, len(adj))
	pairs := make([]flowPair, 0, flows)
	for tries := 0; len(pairs) < flows; tries++ {
		if tries > 100*flows {
			return nil, fmt.Errorf("no host pairs %d bridges apart on a %d-bridge fabric", hops, len(adj))
		}
		s := rng.Intn(len(adj))
		if used[s] {
			continue
		}
		var at []int
		for d, h := range pathHops(adj, s) {
			if h == hops && !used[d] {
				at = append(at, d)
			}
		}
		if len(at) == 0 {
			continue
		}
		d := at[rng.Intn(len(at))]
		used[s], used[d] = true, true
		pairs = append(pairs, flowPair{
			src: built.Host(fmt.Sprintf("H%d", s+1)),
			dst: built.Host(fmt.Sprintf("H%d", d+1)),
		})
	}
	return pairs, nil
}
