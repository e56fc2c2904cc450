package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/host"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// pump_forward: minimum-size frames injected one at a time over
// established fat-tree paths with Port.Send + Network.Run. The event
// queue never holds more than one frame's events, so the wall time is
// the bridge decision, the table read and the link — undiluted by queue
// cost. A heap change must not move it; a FrameView or table-read change
// must.

type pumpSize struct {
	k            int // fat-tree arity
	pairs        int // cross-pod host pairs pumped round-robin
	train        int // frames per timed call
	setupReps    int
	tracedTrains int // trains per segment of the traced run
}

func pump(name string, sz pumpSize) workload {
	return workload{
		name:   name,
		timed:  func(cfg runConfig) (*outcome, error) { return pumpTimed(cfg, sz) },
		traced: func(cfg runConfig, o *outcome, tr *tracer) error { return pumpTraced(cfg, sz, o, tr) },
	}
}

type pumpFabric struct {
	sz      pumpSize
	built   *topo.Built
	dsts    []*host.Host
	senders []*netsim.Port
	frames  [][]byte
	next    int
	sent    int64
}

// setupPump builds the fat tree and establishes one path per pair. The
// seed picks which hosts pair up; every pair is cross-pod (one host from
// the lower half of the pods, one from the upper), so every frame crosses
// the same number of bridges at every seed.
func setupPump(seed int64, sz pumpSize, tr *tracer) (*pumpFabric, error) {
	f := &pumpFabric{sz: sz}
	tr.in("topo.build", func() { f.built = topo.FatTree(topo.DefaultOptions(topo.ARPPath, fabricSeed), sz.k) })
	var err error
	tr.in("topo.warmup", func() { err = f.warm(seed) })
	return f, err
}

func (f *pumpFabric) warm(seed int64) error {
	n := len(f.built.Hosts)
	if f.sz.pairs > n/2 {
		return fmt.Errorf("fat tree k=%d has %d hosts, too few for %d pairs", f.sz.k, n, f.sz.pairs)
	}
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	lower, upper := rng.Perm(n/2), rng.Perm(n/2)
	answered := make([]bool, f.sz.pairs)
	now := f.built.Now()
	for i := 0; i < f.sz.pairs; i++ {
		src := f.built.Host(fmt.Sprintf("H%d", lower[i]+1))
		dst := f.built.Host(fmt.Sprintf("H%d", upper[i]+n/2+1))
		f.built.Engine.At(now+time.Duration(i)*discoveryGap, func() {
			src.Ping(dst.IP(), 0, time.Second, func(r host.PingResult) { answered[i] = r.Err == nil })
		})
		// An unknown IP protocol: the receiving host counts and drops it,
		// so no reply disturbs the run.
		frame, err := layers.Serialize(
			&layers.Ethernet{Dst: dst.MAC(), Src: src.MAC(), EtherType: layers.EtherTypeIPv4},
			&layers.IPv4{TTL: 64, Protocol: 253, Src: src.IP(), Dst: dst.IP()},
			layers.Payload(make([]byte, 64)),
		)
		if err != nil {
			return err
		}
		f.dsts = append(f.dsts, dst)
		f.senders = append(f.senders, src.Port())
		f.frames = append(f.frames, frame)
	}
	f.built.RunFor(time.Duration(f.sz.pairs)*discoveryGap + 2*time.Second)
	for i, ok := range answered {
		if !ok {
			return fmt.Errorf("path discovery to %s failed", f.dsts[i].Name())
		}
	}
	return nil
}

func (f *pumpFabric) delivered() int64 {
	var n int64
	for _, d := range f.dsts {
		n += int64(d.Stats().DroppedUnknownProto)
	}
	return n
}

// train pumps one timed train of frames, each to quiescence.
func (f *pumpFabric) train() quantum {
	start := time.Now()
	for i := 0; i < f.sz.train; i++ {
		f.senders[f.next].Send(f.frames[f.next])
		f.built.Network.Run()
		if f.next++; f.next == len(f.senders) {
			f.next = 0
		}
	}
	f.sent += int64(f.sz.train)
	return quantum{wall: time.Since(start), ops: int64(f.sz.train)}
}

// pumpCounts is what one stretch of trains cost, read from public counters.
type pumpCounts struct {
	frames, delivered int64
	events            uint64
	bridges           bridgeCounts
}

func (f *pumpFabric) counts() pumpCounts {
	return pumpCounts{f.sent, f.delivered(), f.built.Processed(), sumBridges(f.built.Bridges)}
}

func (a pumpCounts) sub(b pumpCounts) pumpCounts {
	return pumpCounts{a.frames - b.frames, a.delivered - b.delivered, a.events - b.events, a.bridges.sub(b.bridges)}
}

// check holds at every seed and run length: every frame delivered, and —
// because every frame does identical work — events and bridge hops per
// frame are whole numbers, reported as exact counts.
func (c pumpCounts) check(o *outcome, live int64) {
	o.attempted += c.frames
	if c.delivered != c.frames {
		o.failed += c.frames - c.delivered
		o.problemf("delivered %d of %d pumped frames", c.delivered, c.frames)
	}
	if live != 0 {
		o.problemf("%d frames still live at teardown", live)
	}
	if c.frames == 0 || c.events%uint64(c.frames) != 0 || c.bridges.forwarded%uint64(c.frames) != 0 {
		o.problemf("events %d or hops %d not a multiple of frames %d", c.events, c.bridges.forwarded, c.frames)
		return
	}
	o.exact["pin.events_per_frame"] = int64(c.events) / c.frames
	o.exact["pin.hops_per_frame"] = int64(c.bridges.forwarded) / c.frames
}

func pumpTimed(cfg runConfig, sz pumpSize) (*outcome, error) {
	o := newOutcome()
	f, setupS, err := medianSetup(sz.setupReps, func() (*pumpFabric, error) { return setupPump(cfg.seed, sz, nil) }, nil)
	if err != nil {
		return nil, err
	}
	o.metrics["setup_s"] = setupS

	var qs []quantum
	before := f.counts()
	deadline := time.Now().Add(seconds(cfg.seconds))
	for len(qs) < 2*warmShare || time.Now().Before(deadline) {
		qs = append(qs, f.train())
	}
	f.counts().sub(before).check(o, f.built.LiveFrames())
	o.metrics["ops_per_sec"] = batchRate(qs)
	return o, nil
}

func pumpTraced(cfg runConfig, sz pumpSize, o *outcome, tr *tracer) error {
	id := tr.begin("setup")
	start := time.Now()
	f, err := setupPump(cfg.seed, sz, tr)
	setupMS := time.Since(start).Seconds() * 1e3
	tr.end(id)
	if err != nil {
		return err
	}

	stretch := func(name string) []quantum {
		var qs []quantum
		id := tr.begin(name)
		for i := 0; i < sz.tracedTrains; i++ {
			qs = append(qs, f.train())
		}
		tr.end(id)
		return qs
	}
	id = tr.begin("timed")
	before, mem0 := f.counts(), readMem()
	untraced := stretch("untraced")
	mem := readMem().since(mem0)
	c := f.counts().sub(before)
	taps := attachTaps(f.built.Network)
	traced := stretch("traced")
	tr.end(id)
	tr.in("teardown", func() { f.counts().sub(before).check(o, f.built.LiveFrames()) })

	taps.record(o)
	m := o.metrics
	m["sim.events"] = float64(c.events)
	m["sim.events_per_frame"] = float64(c.events) / float64(c.frames)
	m["sim.ns_per_event"] = nsPerOp(untraced) * float64(c.frames) / float64(c.events)
	m["netsim.tap_events"] = float64(taps.fp.Events())
	m["netsim.live_frames_end"] = float64(f.built.LiveFrames())
	m["trace_overhead_pct"] = overheadPct(nsPerOp(untraced), nsPerOp(traced))
	opTimeMetrics(o, perOpMicros(untraced))
	m["topo.build_ms"] = setupMS // the fat tree's build and warm-up are one short step
	coreMetrics(m, c.bridges)
	mem.metrics(m, c.frames)

	runMicros(tr, m)
	perFrame := float64(c.bridges.forwarded)/float64(c.frames)*m["core.micro.hop_ns"] + m["netsim.micro.link_frame_ns"]
	m["ledger.coverage_pct"] = 100 * perFrame / nsPerOp(untraced)
	return nil
}
