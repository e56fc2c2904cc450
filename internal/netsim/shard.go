package netsim

// This file is the parallel half of the simulator: a conservative
// discrete-event coordinator that runs a partitioned fabric's shards on
// min(shards, GOMAXPROCS) participants while preserving, bit for bit, the
// event order of the single-engine run (DESIGN.md §8).
//
// The synchronization protocol is a null-message-free window barrier. Let
// L (the lookahead) be the minimum latency — serialization of a minimum
// frame plus propagation — over all links whose two ends live in
// different shards. If the earliest pending event anywhere sits at time T,
// then no shard can receive a cross-shard arrival before T+L (a send at
// s ≥ T arrives strictly after s+L), so every shard may run all events in
// [T, T+L) without looking up.
//
// A window's k shard windows are claimed, not assigned. The goroutine that
// called Run is participant 0, the coordinator; P-1 helpers exist for the
// length of that call, none when P is 1. The coordinator publishes bounds
// and the outbox swap, resets one atomic claim cursor, wakes any helpers,
// claims off the same cursor itself until nothing is left, and parks only
// behind a helper still inside a shard window. Three invariants:
//
//  1. Exactly one participant runs a shard's window: cursor.Add hands each
//     index out once per reset.
//  2. Everything a window reads (bounds, fill, stamp, the zeroed
//     completed-count) is written before the cursor is reset, and a claim
//     is an atomic read of that reset — so it sees all of it, however late
//     the helper woke, even a window late.
//  3. The coordinator touches no shared state (outboxes, cached next keys,
//     tap buffers, engines) until the completed-count reaches k; the
//     cursor then stays at or above k, so a helper finds nothing to claim.
//
// Which goroutine ran a shard window is therefore unobservable: the event
// order, every deterministic counter and every trace are those of P = 1.
//
// Cross-shard arrivals are double-buffered: during window n every sender
// appends into the fill-side outbox matrix out[fill][from][to], and at the
// start of window n+1 each destination shard drains its own inbox column
// of the other buffer — written only during the previous window, so the
// drain needs no lock and never contends with in-window sends. Each
// arrival was stamped by the *sending* link direction with the key it
// would have carried in the unsharded run, so where it sorts in the
// destination heap does not depend on when the exchange delivered it.
//
// Driver events — fault injection, experiment phases, anything scheduled
// on the control engine — execute as barriers: all shards drain below the
// event's timestamp, line their clocks up on it, and the event runs alone
// with the whole fabric paused. That is what makes "global" actions like
// cutting a boundary link or walking every bridge's table safe and
// deterministic in a parallel run.

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/layers"
	"repro/internal/sim"
)

// remoteRec is one cross-shard arrival waiting in a sender's outbox: the
// destination-shard event (key + payload) in wire form.
type remoteRec struct {
	key   sim.Key
	link  *Link
	side  int8 // transmitting side
	epoch uint64
	frame *Frame // destination shard's own clone (ownership transfers)
}

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
// tapFlushWindows parallel windows, before every barrier (whose inline
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

// shardStats is one shard's counter block, written by whoever claimed that
// shard's window, padded so two participants never share a cache line.
type shardStats struct {
	exchanged uint64 // cross-shard arrivals drained into this shard
	wakes     uint64 // windows of this shard run
	handoffs  uint64 // of those, the ones that were a helper's first claim after a wake-up
	wakeNS    int64  // dispatch→claim latency summed over handoffs
	_         [4]uint64
}

// CoordStats reports the coordinator's per-run overhead counters. The
// first four are deterministic functions of the workload and the shard
// count; Handoffs, WakeNS and WaitNS depend on the machine and are zero
// when one participant runs every window. Read it between runs.
type CoordStats struct {
	Windows   uint64 // parallel windows dispatched
	Barriers  uint64 // control-engine events run with all shards paused
	Exchanged uint64 // cross-shard arrivals moved between engines
	Wakes     uint64 // shard windows run = Windows × shards, whoever ran them (the name predates claiming: nothing need wake)
	Handoffs  uint64 // helper wake-ups that claimed a shard window
	WakeNS    int64  // dispatch → the helper's first claim, summed over Handoffs
	WaitNS    int64  // coordinator wall time parked on helpers after its own claims
}

// windowSync is what a run's participants share. cursor and done are the
// protocol (file header); the channels only park helpers between windows
// and the coordinator behind a helper's last shard window.
type windowSync struct {
	cursor atomic.Int32   // next shard to claim; at or above k between windows
	done   atomic.Int32   // shard windows completed; maintained only when helpers exist
	wake   chan bool      // one true per helper per window, dropped when full; false retires a helper (cap k-1)
	joined chan struct{}  // the helper that takes done to k tells the parked coordinator (cap 1: it need not wait)
	exited sync.WaitGroup // helpers spawned and not yet returned
}

// coordinator drives a partitioned network.
type coordinator struct {
	net       *Network
	shards    []*sim.Engine
	shardOf   map[Node]int
	lookahead time.Duration     // global minimum (reporting; la drives the windows)
	la        [][]time.Duration // la[from][to]: min latency over boundary paths from→to (maxInt64 = none)
	laIn      [][]laEdge        // laIn[s]: the finite rows of la[·][s], hoisted off the window loop

	// Double-buffered outbox matrices: senders append to out[fill] during
	// a window, destinations drain their column of out[fill^1] at window
	// start. outMin mirrors the matrices with each cell's smallest key so
	// the coordinator can fold undrained arrivals into its pending minima
	// without touching the records.
	out    [2][][][]remoteRec
	outMin [2][][]sim.Key
	fill   int

	tap      []tapShard // per-shard tap buffers, written only by the participant running that shard's window
	mergeIdx []int      // flushTapsBelow merge cursors (reused across calls)

	bounds    []sim.Key // per-shard window bounds, published before each cursor reset
	next      []sim.Key // cached engine next keys: written at shard-window end
	nextValid bool      // false when engines were scheduled into outside a window
	pend      []sim.Key // scratch: next folded with the fill-side outbox minima

	ws     windowSync
	sstats []shardStats
	stamp  time.Time // dispatch instant of the current window (taken only when helpers exist)
	waitNS int64     // coordinator wall time parked behind helpers

	windows  uint64 // parallel windows dispatched
	barriers uint64 // root events executed with all shards paused

	// inWindow is true while a parallel window is executing: written
	// between windows, read inside them to route taps to the shard buffers.
	inWindow bool

	panicked atomic.Pointer[any] // first panic inside a shard window, re-raised by run after the join
}

// Partition splits the fabric into k shards: shardOf assigns every node,
// nodes' and link directions' scheduling identities are rebound to their
// shard's engine, and subsequent Run/RunFor/RunUntil calls execute shards
// in parallel under the conservative coordinator. Partitioning must happen
// before the simulation has run (topologies partition between cabling and
// Start). k <= 1 is a no-op. Multi-homed nodes are legal but every
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
		pend:     make([]sim.Key, k),
		sstats:   make([]shardStats, k),
	}
	co.ws.wake = make(chan bool, k-1)
	co.ws.joined = make(chan struct{}, 1)
	co.ws.cursor.Store(int32(k)) // nothing to claim until the first window opens
	for b := range co.out {
		co.out[b] = make([][][]remoteRec, k)
		co.outMin[b] = make([][]sim.Key, k)
		for i := 0; i < k; i++ {
			co.out[b][i] = make([][]remoteRec, k)
			co.outMin[b][i] = make([]sim.Key, k)
			for j := 0; j < k; j++ {
				co.outMin[b][i][j] = sim.MaxKey
			}
		}
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

// ship queues one cross-shard arrival into the fill-side outbox; called
// from the sending shard's window (or by a barrier event), drained at the
// start of the destination shard's next window.
//
//fabric:hotpath
func (co *coordinator) ship(from, to int, rec remoteRec) {
	f := co.fill
	co.out[f][from][to] = append(co.out[f][from][to], rec)
	if rec.key.Less(co.outMin[f][from][to]) {
		co.outMin[f][from][to] = rec.key
	}
}

// inject materializes one outbox record as a keyed event on its
// destination engine and clears the record (frame ownership transfers).
//
//fabric:hotpath
func (co *coordinator) inject(to int, rec *remoteRec) {
	rf := remoteFlightPool.Get().(*remoteFlight)
	rf.eng = co.shards[to]
	rf.link = rec.link
	rf.from = &rec.link.ports[rec.side]
	rf.frame = rec.frame
	rf.epoch = rec.epoch
	co.shards[to].ScheduleKeyed(rec.key, rf, 0)
	*rec = remoteRec{}
}

// drainInbox injects everything buffered for shard s in outbox buffer buf
// and reports how many records moved. During a window only shard s's
// claimant touches column s of the drain-side buffer, so no lock is needed.
//
//fabric:hotpath
func (co *coordinator) drainInbox(buf, s int) uint64 {
	var n uint64
	for from := range co.out[buf] {
		cell := co.out[buf][from][s]
		if len(cell) == 0 {
			continue
		}
		for i := range cell {
			co.inject(s, &cell[i])
		}
		n += uint64(len(cell))
		co.out[buf][from][s] = cell[:0]
		co.outMin[buf][from][s] = sim.MaxKey
	}
	return n
}

// drainOutboxes serially injects every buffered record from both outbox
// buffers, restoring the invariant that run() returns with empty
// outboxes. Safe between windows; the records' keys all sit above the
// bounded horizon (that is what made returning legal).
//
//fabric:hotpath
func (co *coordinator) drainOutboxes() {
	for buf := 0; buf < 2; buf++ {
		for s := range co.shards {
			co.sstats[s].exchanged += co.drainInbox(buf, s)
		}
	}
	co.nextValid = false
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

// helper is participants 1..P-1: one pass over the claim cursor per wake
// token. A token taken late, or left from an earlier window or run, costs a
// pass that finds the cursor exhausted; nothing stalls on one, because the
// coordinator waits for claimed shard windows, never for helpers.
func (co *coordinator) helper() {
	defer co.ws.exited.Done()
	for <-co.ws.wake {
		co.claimShards(true)
	}
}

// dispatchWindow runs one window: open it, run every shard window nobody
// else claims, park only behind a helper that is still inside one. With no
// helpers that is a loop over the shards — no lock, no clock, no count.
func (co *coordinator) dispatchWindow(helpers int) {
	g := &co.ws
	k := int32(len(co.shards))
	if helpers > 0 {
		co.stamp = time.Now() //fabriclint:wallclock wake-latency stats only; never read by event scheduling
		g.done.Store(0)
	}
	g.cursor.Store(0) // opens the window: everything it reads is published above
	for ; helpers > 0; helpers-- {
		select {
		case g.wake <- true:
		default: // as many tokens queued as there are helpers to take them
		}
	}
	// The Add that takes done to k is the last one, and whoever makes it
	// knows: either the coordinator here, or a helper — which then sends
	// exactly the one value received here (always, if it ran them all).
	if ran := co.claimShards(false); ran == 0 || ran < k && g.done.Add(ran) < k {
		parked := time.Now() //fabriclint:wallclock wait stats only; never read by event scheduling
		<-g.joined
		co.waitNS += int64(time.Since(parked))
	}
}

// claimShards is the one claim loop: run the shard window of every index
// this participant gets off the cursor, and report how many that was. A
// helper times its first claim against the dispatch stamp and counts each
// completion as it goes; the coordinator adds its share once, afterwards.
func (co *coordinator) claimShards(helper bool) (ran int32) {
	g := &co.ws
	k := int32(len(co.shards))
	for {
		s := g.cursor.Add(1) - 1
		if s >= k {
			return ran
		}
		if helper && ran == 0 {
			w := &co.sstats[s]
			w.handoffs++
			w.wakeNS += int64(time.Since(co.stamp))
		}
		co.runShardWindow(int(s))
		ran++
		if helper && g.done.Add(1) == k {
			g.joined <- struct{}{}
		}
	}
}

// runShardWindow is one shard's window body: drain the shard's inbox
// column from the previous window, run the engine up to the bound, cache
// the next pending key for the coordinator. The first panic is kept for
// run to re-raise on the caller's goroutine after the join; the window
// still counts as completed, so nobody is left parked.
func (co *coordinator) runShardWindow(s int) {
	defer func() {
		if r := recover(); r != nil {
			first := r // declared here so the heap copy is made only on a panic
			co.panicked.CompareAndSwap(nil, &first)
		}
	}()
	w := &co.sstats[s]
	w.wakes++
	w.exchanged += co.drainInbox(co.fill^1, s)
	e := co.shards[s]
	e.RunWindowKey(co.bounds[s])
	co.next[s], _ = e.NextKey()
}

// run is the coordinator's main loop: alternate parallel lookahead windows
// with root-event barriers until the horizon (bounded) or quiescence.
// When bounded, events at exactly `until` run too and every clock ends at
// `until`, mirroring Engine.RunUntil.
//
// Barriers are key-exact: a control-engine event may carry an entity's
// identity (owner > 0, from ScheduleScoped's cross-shard case), and shard
// events at the same timestamp with smaller keys run inside the preceding
// window, so the global execution order is the single-engine key order
// whatever the event's venue. Windows are bounded per shard pair: shard s
// may run to min over senders t of (t's earliest pending key + la[t][s])
// — one short boundary link only throttles its own two shards. "Pending"
// folds the engines' cached next keys with the minima of the undrained
// outboxes, so the coordinator never has to serialize an exchange to
// reason about what is coming.
func (co *coordinator) run(until time.Duration, bounded bool) {
	defer co.flushTaps()
	root := co.net.Engine
	k := len(co.shards)

	// One participant per processor, at most one per shard, the caller
	// among them. Helpers spawn at the first window, so barrier-only calls
	// (drivers slicing time finely) start none, and are retired and waited
	// out before this call returns: a parked goroutine would pin the
	// Network (blocked goroutines never collect).
	helpers := min(k, runtime.GOMAXPROCS(0)) - 1
	unspawned := helpers
	defer func() {
		for n := helpers - unspawned; n > 0; n-- {
			co.ws.wake <- false
		}
		co.ws.exited.Wait()
	}()

	untilBound := sim.KeyAfter(until) // inclusive of events at exactly until
	startProcessed := co.net.Processed()
	limit := root.EventLimit()
	tracing := len(co.net.taps) > 0
	flushIn := tapFlushWindows
	co.nextValid = false
	for {
		// Runaway-loop backstop, checked every iteration so both code
		// paths — parallel windows and root-event barriers — are covered;
		// a self-rescheduling driver event must panic here exactly like
		// it would under Engine.Run at shards=1.
		if co.net.Processed()-startProcessed > limit {
			panic(fmt.Sprintf("netsim: event limit %d exceeded across shards — probable forwarding loop", limit))
		}

		rootKey, rootOK := root.NextKey() // MaxKey when none is pending

		// Per-shard pending minima: each shard window cached its engine's
		// next key as it ended; anything scheduled outside a
		// window (barriers, driver code before the run) invalidates the
		// cache and is recomputed here, serially, once.
		if !co.nextValid {
			for s, e := range co.shards {
				co.next[s], _ = e.NextKey()
			}
			co.nextValid = true
		}
		pend := co.pend
		copy(pend, co.next)
		for from := 0; from < k; from++ {
			mins := co.outMin[co.fill][from]
			for to := 0; to < k; to++ {
				if mins[to].Less(pend[to]) {
					pend[to] = mins[to]
				}
			}
		}
		minShard := sim.MaxKey
		for s := 0; s < k; s++ {
			if pend[s].Less(minShard) {
				minShard = pend[s]
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
			// Quiescent: pending minima cover the outboxes, so they are
			// empty too.
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
			co.drainOutboxes()
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

		// Parallel window: shard s may run everything keyed strictly below
		// its own bound. Any future arrival into s traces back to an event
		// currently pending in some shard t — in its heap or still in an
		// outbox (exchanges happen at window start, so an idle shard
		// cannot wake up and send mid-window) — and crosses boundary paths
		// costing at least la[t][s], the closed matrix, t = s included via
		// its cheapest round trip. The pending root event, if any, caps
		// every shard key-exactly.
		for ; unspawned > 0; unspawned-- {
			co.ws.exited.Add(1)
			go co.helper()
		}
		ceil := rootKey
		if bounded && untilBound.Less(ceil) {
			ceil = untilBound
		}
		for s := 0; s < k; s++ {
			b := ceil
			for _, e := range co.laIn[s] {
				// An idle sender (MaxKey) caps nothing, and neither does one
				// whose cap would pass the last representable time.
				if p := pend[e.from]; p.At <= math.MaxInt64-e.d {
					if lim := (sim.Key{At: p.At + e.d}); lim.Less(b) {
						b = lim
					}
				}
			}
			co.bounds[s] = b
		}
		co.fill ^= 1 // shard windows drain what senders filled last window
		co.windows++
		flushIn--
		co.inWindow = true
		co.dispatchWindow(helpers)
		co.inWindow = false
		if p := co.panicked.Swap(nil); p != nil {
			panic(*p)
		}
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
