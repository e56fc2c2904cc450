package netsim

// This file is the sharded half of the simulator: a conservative
// discrete-event coordinator that runs a partitioned fabric's shards in
// lookahead windows on the calling goroutine while preserving, bit for
// bit, the event order of the single-engine run (DESIGN.md §8).
//
// The synchronization protocol is a null-message-free window barrier. Let
// L (the lookahead) be the minimum latency — serialization of a minimum
// frame plus propagation — over all links whose two ends live in
// different shards. If the earliest pending event anywhere sits at time T,
// then no shard can receive a cross-shard arrival before T+L (a send at
// s ≥ T arrives strictly after s+L), so every shard may run all events in
// [T, T+L) without looking up. A window runs each shard's share in shard
// order; which order does not matter, because nothing one shard does in
// a window can reach another shard inside it.
//
// Cross-shard arrivals are injected into the destination engine as they
// are sent. Each was stamped by the *sending* link direction with the key
// it would have carried in the unsharded run, so where it sorts in the
// destination heap does not depend on when it arrived there; and the
// lookahead puts that key at or above the destination's window bound, so
// it waits for a later window whether the destination's share of this
// one already ran or is still to come.
//
// Driver events — fault injection, experiment phases, anything scheduled
// on the control engine — execute as barriers: all shards drain below the
// event's timestamp, line their clocks up on it, and the event runs alone
// with the whole fabric paused. That is what makes "global" actions like
// cutting a boundary link or walking every bridge's table safe and
// deterministic in a sharded run.

import (
	"fmt"
	"math"
	"time"

	"repro/internal/layers"
	"repro/internal/sim"
)

// tapRec is one buffered tap observation: the TapEvent fields plus the
// ordering key of the event that emitted it and the byte range of the
// frame copy in the shard's arena.
type tapRec struct {
	key      sim.Key // the emitting event's; its At is the tap's time too
	kind     TapKind
	from, to *Port
	frameID  uint64
	off, ln  int32
}

// tapShard buffers one shard's tap stream for the deterministic merge.
type tapShard struct {
	recs  []tapRec
	arena []byte
}

// Tap flushing is amortized: buffered records are merged out every
// tapFlushWindows windows, before every barrier (whose inline
// emissions must land after everything the windows produced), and
// whenever a shard's buffer grows past the backlog bounds.
const (
	tapFlushWindows = 32
	tapFlushRecs    = 1 << 13
	tapFlushBytes   = 1 << 20
)

// laEdge is one finite lookahead constraint into a shard: events pending
// in shard from cap the window at their timestamp plus d.
type laEdge struct {
	from int
	d    time.Duration
}

// CoordStats reports the coordinator's per-run overhead counters, all
// deterministic functions of the workload and the shard count. Read it
// between runs.
type CoordStats struct {
	Windows   uint64 // lookahead windows run
	Barriers  uint64 // control-engine events run with all shards paused
	Exchanged uint64 // cross-shard arrivals moved between engines
	Wakes     uint64 // shard windows run: Windows × shards
	WakeNS    int64  // always 0: nothing is handed to another goroutine
}

// coordinator drives a partitioned network.
type coordinator struct {
	net       *Network
	shards    []*sim.Engine
	shardOf   map[Node]int
	lookahead time.Duration     // global minimum (reporting; la drives the windows)
	la        [][]time.Duration // la[from][to]: min latency over boundary paths from→to (maxInt64 = none)
	laIn      [][]laEdge        // laIn[s]: the finite rows of la[·][s], hoisted off the window loop

	tap      []tapShard // per-shard tap buffers, written by that shard's windows
	mergeIdx []int      // flushTapsBelow merge cursors (reused across calls)

	bounds    []sim.Key // per-shard window bounds, all taken before a window's first shard runs
	next      []sim.Key // pending minimum per shard: engine next keys, lowered by ship
	nextValid bool      // false when engines were scheduled into outside a window

	windows   uint64 // lookahead windows run
	barriers  uint64 // root events executed with all shards paused
	exchanged uint64 // cross-shard arrivals shipped

	// inWindow is true while a lookahead window is executing: written
	// between windows, read inside them to route taps to the shard buffers.
	inWindow bool
}

// Partition splits the fabric into k shards: shardOf assigns every node,
// nodes' and link directions' scheduling identities are rebound to their
// shard's engine, and subsequent Run/RunFor/RunUntil calls execute shards
// in lookahead windows under the conservative coordinator. Partitioning
// must happen before the simulation has run (topologies partition between
// cabling and Start). k <= 1 is a no-op. Multi-homed nodes are legal but every
// boundary link must have positive latency — the lookahead window is
// derived from the smallest one.
func (n *Network) Partition(k int, shardOf func(Node) int) {
	if k <= 1 {
		return
	}
	if n.co != nil {
		panic("netsim: network already partitioned")
	}
	if n.Engine.Processed() != 0 {
		panic("netsim: Partition after the simulation has run")
	}
	shards := make([]*sim.Engine, k)
	for i := range shards {
		e := sim.New(n.seed + int64(i) + 1)
		e.SetID(i)
		e.SetEventLimit(n.Engine.EventLimit())
		shards[i] = e
	}
	co := &coordinator{
		net:      n,
		shards:   shards,
		shardOf:  make(map[Node]int, len(n.nodes)),
		tap:      make([]tapShard, k),
		mergeIdx: make([]int, k),
		bounds:   make([]sim.Key, k),
		next:     make([]sim.Key, k),
	}
	for _, node := range n.nodes {
		s := shardOf(node)
		if s < 0 || s >= k {
			panic(fmt.Sprintf("netsim: node %q assigned to shard %d of %d", node.Name(), s, k))
		}
		co.shardOf[node] = s
		n.procs[node.Name()].Rebind(shards[s])
	}
	// Lookahead is computed per shard pair: one short boundary link only
	// throttles the windows of the shards it joins (and paths through
	// them), not the whole fabric. The global minimum is kept for
	// reporting (Lookahead).
	co.la = make([][]time.Duration, k)
	for i := range co.la {
		co.la[i] = make([]time.Duration, k)
		for j := range co.la[i] {
			co.la[i][j] = time.Duration(math.MaxInt64)
		}
	}
	la := time.Duration(math.MaxInt64)
	for _, l := range n.links {
		sa := co.shardOf[l.ports[0].node]
		sb := co.shardOf[l.ports[1].node]
		l.shard = [2]int{sa, sb}
		l.proc[0].Rebind(shards[sa])
		l.proc[1].Rebind(shards[sb])
		if sa != sb {
			lb := l.cfg.Delay + serTime(l.cfg.Rate, layers.WireBytes(0))
			if lb <= 0 {
				panic(fmt.Sprintf("netsim: boundary link %v needs positive latency", l))
			}
			// Both directions share the link config, so the pair matrix is
			// symmetric; a frame from sa lands in sb no earlier than lb
			// after its send, and vice versa.
			if lb < co.la[sa][sb] {
				co.la[sa][sb] = lb
				co.la[sb][sa] = lb
			}
			if lb < la {
				la = lb
			}
		}
	}
	if la == time.Duration(math.MaxInt64) {
		// No boundary links: shards are independent; any window will do.
		la = time.Millisecond
	}
	co.lookahead = la

	// Close the pair matrix over multi-hop paths (Floyd–Warshall; k is
	// small). An event pending in shard t can influence shard s through
	// any chain of boundary crossings, each materializing at a window
	// exchange, so the binding constraint is the cheapest path t→s — and
	// for t = s the cheapest round trip: a shard's own events can come
	// back at it through a currently-idle neighbour, which is why the
	// diagonal stays ∞-initialized instead of 0 (the relaxation fills in
	// real cycle costs).
	const inf = time.Duration(math.MaxInt64)
	for via := 0; via < k; via++ {
		for i := 0; i < k; i++ {
			if co.la[i][via] == inf {
				continue
			}
			for j := 0; j < k; j++ {
				if co.la[via][j] == inf {
					continue
				}
				if d := co.la[i][via] + co.la[via][j]; d < co.la[i][j] {
					co.la[i][j] = d
				}
			}
		}
	}
	// The window loop only ever walks the finite constraints into each
	// shard, so hoist them out of the matrix once.
	co.laIn = make([][]laEdge, k)
	for s := 0; s < k; s++ {
		for t := 0; t < k; t++ {
			if co.la[t][s] != inf {
				co.laIn[s] = append(co.laIn[s], laEdge{from: t, d: co.la[t][s]})
			}
		}
	}
	n.co = co
}

// Sharded reports whether the network has been partitioned, and into how
// many shards.
func (n *Network) Sharded() (int, bool) {
	if n.co == nil {
		return 1, false
	}
	return len(n.co.shards), true
}

// Lookahead returns the coordinator's synchronization window (0 when
// unsharded).
func (n *Network) Lookahead() time.Duration {
	if n.co == nil {
		return 0
	}
	return n.co.lookahead
}

// Processed returns the total number of events executed across the
// control engine and every shard.
func (n *Network) Processed() uint64 {
	total := n.Engine.Processed()
	if n.co != nil {
		for _, e := range n.co.shards {
			total += e.Processed()
		}
	}
	return total
}

// ship injects one cross-shard arrival into its destination engine as a
// keyed event carrying the destination's own clone of the frame, and
// lowers that shard's pending minimum to its key. Called from the sending
// shard's window, a barrier event or driver code between runs.
//
//fabric:hotpath
func (co *coordinator) ship(to int, key sim.Key, l *Link, from *Port, f *Frame) {
	rf := remoteFlightPool.Get().(*remoteFlight)
	rf.eng = co.shards[to]
	rf.link, rf.from, rf.frame, rf.epoch = l, from, f, l.epoch
	rf.eng.ScheduleKeyed(key, rf, 0)
	if key.Less(co.next[to]) {
		co.next[to] = key
	}
	co.exchanged++
}

// buffer records a tap observation in the emitting shard's buffer, frame
// bytes copied into the shard arena, stamped with the executing event's
// ordering key.
//
//fabric:hotpath
func (co *coordinator) buffer(e *sim.Engine, ev TapEvent) {
	ts := &co.tap[e.ID()]
	off := int32(len(ts.arena))
	ts.arena = append(ts.arena, ev.Frame...)
	ts.recs = append(ts.recs, tapRec{
		key:  e.CurKey(),
		kind: ev.Kind, from: ev.From, to: ev.To, frameID: ev.FrameID,
		off: off, ln: int32(len(ev.Frame)),
	})
}

// flushTaps drains every buffered tap observation (end of a run).
func (co *coordinator) flushTaps() { co.flushTapsBelow(sim.MaxKey) }

// tapBacklogged reports whether any shard's tap buffer has outgrown the
// backlog bounds and should flush ahead of the periodic schedule.
func (co *coordinator) tapBacklogged() bool {
	for s := range co.tap {
		if len(co.tap[s].recs) >= tapFlushRecs || len(co.tap[s].arena) >= tapFlushBytes {
			return true
		}
	}
	return false
}

// flushTapsBelow merges the per-shard tap buffers up to (strictly below)
// the watermark key and delivers them to the registered taps, keeping
// later records buffered. Within a shard the buffer is already key-sorted
// (events execute in key order); across shards a stable k-way merge on
// (at, owner, oseq) reconstructs exactly the emission order of the
// unsharded run. Keys never tie across buffers: only shard events are
// buffered (barrier and driver emissions deliver inline), and every shard
// event's owner is a distinct node or link direction.
//
// The watermark matters because windows are bounded per shard: one shard
// may already have executed — and buffered taps for — events keyed after
// another shard's next pending event. Flushing only below the minimum
// pending key everywhere keeps the delivered stream in global key order;
// the tails stay buffered until the lagging shards catch up. Flushes are
// amortized (every tapFlushWindows windows, before barriers, on backlog):
// the watermark argument is exactly why batching windows up changes
// nothing in the delivered order.
func (co *coordinator) flushTapsBelow(watermark sim.Key) {
	if len(co.net.taps) == 0 {
		for s := range co.tap {
			co.tap[s].recs = co.tap[s].recs[:0]
			co.tap[s].arena = co.tap[s].arena[:0]
		}
		return
	}
	idx := co.mergeIdx
	for s := range idx {
		idx[s] = 0
	}
	for {
		best := -1
		for s := range co.tap {
			if idx[s] >= len(co.tap[s].recs) {
				continue
			}
			if best == -1 || co.tap[s].recs[idx[s]].key.Less(co.tap[best].recs[idx[best]].key) {
				best = s
			}
		}
		if best == -1 {
			break
		}
		r := &co.tap[best].recs[idx[best]]
		if !r.key.Less(watermark) {
			break
		}
		idx[best]++
		ev := TapEvent{
			At: r.key.At, Kind: r.kind, From: r.from, To: r.to,
			Frame: co.tap[best].arena[r.off : r.off+r.ln], FrameID: r.frameID,
		}
		for _, t := range co.net.taps {
			t(ev)
		}
	}
	for s := range co.tap {
		ts := &co.tap[s]
		n := copy(ts.recs, ts.recs[idx[s]:])
		ts.recs = ts.recs[:n]
		if n == 0 {
			// Frame bytes are only referenced through live records; the
			// arena resets (and its offsets restart) once all are flushed.
			ts.arena = ts.arena[:0]
		}
	}
}

// run is the coordinator's main loop: alternate lookahead windows with
// root-event barriers until the horizon (bounded) or quiescence. When
// bounded, events at exactly `until` run too and every clock ends at
// `until`, mirroring Engine.RunUntil.
//
// Barriers are key-exact: a control-engine event may carry an entity's
// identity (owner > 0, from ScheduleScoped's cross-shard case), and shard
// events at the same timestamp with smaller keys run inside the preceding
// window, so the global execution order is the single-engine key order
// whatever the event's venue. Windows are bounded per shard pair: shard s
// may run to min over senders t of (t's earliest pending key + la[t][s])
// — one short boundary link only throttles its own two shards.
func (co *coordinator) run(until time.Duration, bounded bool) {
	defer func() {
		co.inWindow = false // a shard's panic leaves its window unfinished
		co.flushTaps()
	}()
	root := co.net.Engine
	untilBound := sim.KeyAfter(until) // inclusive of events at exactly until
	startProcessed := co.net.Processed()
	limit := root.EventLimit()
	tracing := len(co.net.taps) > 0
	flushIn := tapFlushWindows
	co.nextValid = false
	for {
		// Runaway-loop backstop, checked every iteration so both code
		// paths — windows and root-event barriers — are covered; a
		// self-rescheduling driver event must panic here exactly like it
		// would under Engine.Run at shards=1.
		if co.net.Processed()-startProcessed > limit {
			panic(fmt.Sprintf("netsim: event limit %d exceeded across shards — probable forwarding loop", limit))
		}

		rootKey, rootOK := root.NextKey() // MaxKey when none is pending

		// Per-shard pending minima: each shard's window cached its
		// engine's next key as it ended, and ship lowers it for every
		// arrival injected afterwards; anything scheduled outside a
		// window (barriers, driver code before the run) invalidates the
		// cache and is recomputed here once.
		if !co.nextValid {
			for s, e := range co.shards {
				co.next[s], _ = e.NextKey()
			}
			co.nextValid = true
		}
		minShard := sim.MaxKey
		for _, p := range co.next {
			if p.Less(minShard) {
				minShard = p
			}
		}
		shardOK := minShard != sim.MaxKey

		// Everything keyed below both the pending barrier and every
		// shard's pending minimum is final: no later execution, injection
		// or inline barrier emission can carry a smaller key (arrivals
		// land strictly after their sender's pending events), so the
		// buffered taps below that watermark may flush, in global key
		// order. Flushing is amortized; a barrier forces it because the
		// barrier's own inline emissions must come after the buffers.
		barrierNext := rootOK && rootKey.Less(minShard)
		if tracing && (barrierNext || flushIn <= 0 || co.tapBacklogged()) {
			watermark := minShard
			if rootKey.Less(watermark) {
				watermark = rootKey
			}
			co.flushTapsBelow(watermark)
			flushIn = tapFlushWindows
		}

		if !rootOK && !shardOK {
			if bounded {
				co.setAllNow(until)
			} else {
				co.levelClocks()
			}
			return
		}
		earliest := minShard.At
		if rootOK && rootKey.At < earliest {
			earliest = rootKey.At
		}
		if bounded && earliest > until {
			co.setAllNow(until)
			return
		}

		if barrierNext {
			// Barrier: no shard event keyed before the root event is
			// pending anywhere, so line every clock up on its timestamp
			// and run it alone. Root events at one instant run in key
			// order; anything they schedule re-enters the loop. Taps the
			// barrier emits deliver inline (emit), in program order,
			// after everything already flushed.
			co.setAllNow(rootKey.At)
			co.barriers++
			root.Step()
			// The barrier may have scheduled onto shard engines
			// (ScheduleScoped, port flaps): recompute the cached keys.
			co.nextValid = false
			continue
		}

		// Window: shard s may run everything keyed strictly below its own
		// bound. Any future arrival into s traces back to an event
		// currently pending in some shard t and crosses boundary paths
		// costing at least la[t][s], the closed matrix, t = s included via
		// its cheapest round trip. The pending root event, if any, caps
		// every shard key-exactly. Every bound is taken before any shard
		// runs: the minima move as the window goes.
		ceil := rootKey
		if bounded && untilBound.Less(ceil) {
			ceil = untilBound
		}
		for s := range co.shards {
			b := ceil
			for _, e := range co.laIn[s] {
				// An idle sender (MaxKey) caps nothing, and neither does one
				// whose cap would pass the last representable time.
				if p := co.next[e.from]; p.At <= math.MaxInt64-e.d {
					if lim := (sim.Key{At: p.At + e.d}); lim.Less(b) {
						b = lim
					}
				}
			}
			co.bounds[s] = b
		}
		co.windows++
		flushIn--
		co.inWindow = true
		for s, e := range co.shards {
			e.RunWindowKey(co.bounds[s])
			co.next[s], _ = e.NextKey()
		}
		co.inWindow = false
	}
}

// setAllNow lines the control engine and every shard up on t.
func (co *coordinator) setAllNow(t time.Duration) {
	co.net.Engine.SetNow(t)
	for _, e := range co.shards {
		e.SetNow(t)
	}
}

// levelClocks advances every engine to the maximum current time after an
// unbounded drain, so Now() is consistent across the fabric.
func (co *coordinator) levelClocks() {
	max := co.net.Engine.Now()
	for _, e := range co.shards {
		if n := e.Now(); n > max {
			max = n
		}
	}
	co.setAllNow(max)
}
