// Package sim provides the deterministic discrete-event simulation kernel
// used by every other package in this repository.
//
// The kernel models virtual time as a time.Duration measured from the start
// of the run. Events are callbacks scheduled at absolute virtual times and
// are executed in (time, owner, owner-sequence) order — see Proc — which
// makes every run with the same seed and the same inputs bit-for-bit
// reproducible. The paper's NetFPGA testbed resolves races between flooded
// frame copies in hardware; here the same races are resolved by the
// deterministic event order.
//
// The ordering key deserves a word, because it is what makes the sharded
// engine (DESIGN.md §8) possible. Every event is stamped by the
// Proc that scheduled it: a scheduling identity owned by exactly one
// simulated entity (a node, one direction of a link, or the root driver).
// Ties at equal virtual times break by (owner id, per-owner sequence), and
// both components are functions of that one entity's own deterministic
// history — never of how events from unrelated entities interleave. Two
// events that tie across owners may touch the same state: two link
// directions that deliver into one bridge in the same nanosecond both
// write its lock table, and that tie is the discovery race itself. Owner
// id, that is wiring order, settles it — arbitrarily but consistently. The
// result is an execution order that does not depend on how the fabric is
// partitioned into shards, which is the determinism bedrock the shard
// coordinator in internal/netsim builds on.
//
// Representation (DESIGN.md §4, §11): events live in a generation-guarded
// arena and the pending queue is a binary heap of pointer-free 32-byte
// entries carrying the full ordering key inline. Comparisons during heap
// maintenance touch only the contiguous entry slice — no pointer chasing,
// no interface dispatch, no GC write barriers on sift swaps — and
// cancellation is a generation bump, with stale entries skipped lazily
// when the queue reaches them. The queue has two tiers split by a rolling
// horizon: every key in the near heap sorts before the horizon, every key
// in the far heap at or after it. Every batch starts with the horizon
// farSpan/2 to farSpan ahead of the first pending key, so the heap the hot
// path sifts holds only what is due soon, and a parked timer (lock window,
// repair, re-discovery probe) costs the traffic around it nothing until
// the horizon reaches it and it is merged into the near heap. On top of
// that sits batched window-drain execution (Run/RunUntil/RunWindowKey):
// the near heap's front window is popped into a reusable run buffer and
// dispatched as a batch, with events scheduled *during* the batch that
// fall inside the window going to a small insertion-sorted spill buffer
// instead of the heap. Execution
// always takes the minimum pending key across run buffer, spill buffer
// and near heap (a window never reaches past the horizon, so the far heap
// cannot hold a smaller one), so the order is exactly the classic
// one-pop-per-event order — batching and tiering are invisible everywhere
// except the wall clock.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// DefaultEventLimit bounds the number of events a single Run may process.
// It exists purely as a runaway-loop backstop for buggy protocols (for
// example a bridge that floods its own flood); well-formed simulations stay
// far below it. Use SetEventLimit to raise it for very long runs.
const DefaultEventLimit = 50_000_000

// Batch geometry. maxBatch is how many heap-front events one refill moves
// into the run buffer: big enough to amortize the per-batch bookkeeping,
// small enough that the window (bounded by the next heap key after the
// refill) stays short and the spill buffer stays cache-resident. maxSpill
// caps the *pending* spill tail; events past it fall back to the heap,
// which the dispatch merge also consumes, so overflow affects cost, never
// order.
const (
	maxBatch = 128
	maxSpill = 512
)

// farSpan is how far ahead of the first pending key roll puts the horizon
// between the near and the far heap, in ns of virtual time; advance lets
// that lead shrink to farSpan/2 before rolling again. The lead has to stay
// several link delays long (512 B at 1 Gb/s plus 5 µs of cable is ~9 µs
// here) or an ordinary frame arrival parks in far and is handled twice,
// and short against the protocol timers (ms to s) or they all sit in the
// near heap again. Between those it is a plateau, not a tuning knob.
// Measured on bench/perf against the parent, seed 1, median of three 10 s
// runs (CHANGES.md, PR 19): 1<<14 costs pump_forward and steady_unicast
// 12 % each; 1<<16, 1<<18 and 1<<20 are all within 1 % on pump and
// +2…+4 % on steady, and read +44 %, +45 % and +35 % on discovery_churn.
const farSpan = 1 << 18

// Timer is a handle to a scheduled event. The zero value is not a valid
// Timer; handles are produced by Engine.At and Engine.After.
type Timer struct {
	eng     *Engine
	at      time.Duration
	idx     int32 // arena slot + 1; 0 = no event
	gen     uint32
	stopped bool
}

// Stop cancels the timer. It reports whether the call prevented the event
// from firing: false means the event already ran (or was already stopped).
// Stopping a nil Timer is a no-op that returns false. Cancellation is
// O(1): the arena slot is released under a generation bump and the queue
// entry is skipped when the queue reaches it.
func (t *Timer) Stop() bool {
	if t == nil || t.idx == 0 || t.stopped {
		return false
	}
	e := t.eng
	a := &e.arena[t.idx-1]
	if a.free || a.gen != t.gen {
		return false // already fired
	}
	e.release(t.idx - 1)
	t.stopped = true
	return true
}

// Stopped reports whether the timer was canceled before it fired.
func (t *Timer) Stopped() bool { return t != nil && t.stopped }

// When returns the virtual time the event is (or was) scheduled to fire
// at. A nil or zero Timer has no event and reports zero, mirroring the
// nil-safety of Stop and Stopped.
func (t *Timer) When() time.Duration {
	if t == nil {
		return 0
	}
	return t.at
}

// Runner is the allocation-free event callback: an object whose RunEvent
// method fires when the event comes due. Unlike a closure handed to At,
// a Runner carries its own state, so scheduling one allocates nothing —
// the engine recycles the arena slot after it fires. arg distinguishes
// multiple events pending on the same Runner (netsim uses it to tell a
// serializer-free event from a frame arrival).
type Runner interface {
	RunEvent(arg int32)
}

// event is one arena slot: the payload of a scheduled event. The ordering
// key does not live here — it rides in the queue entry — so heap
// maintenance never touches the arena. Slots are recycled through a free
// list; the generation counter invalidates stale queue entries and Timer
// handles cheaply, which is what makes cancellation O(1) with no heap
// fix-up.
type event struct {
	fn       func()
	runner   Runner // alternative to fn for pooled, closure-free events
	rarg     int32  // argument passed to runner.RunEvent
	gen      uint32 // bumped on release; guards entries and Timer handles
	free     bool
	nextFree int32
}

// Key is the event order: an event's virtual time, then the scheduling
// identity that stamped it (owner 0 = the root driver), then that owner's
// sequence number. Keys are unique — an owner never reuses a sequence
// number — so every correct queue pops them in the same order.
type Key struct {
	At         time.Duration
	Owner, Seq uint64
}

// MaxKey sorts after every key a real event carries (no owner reaches
// MaxUint64), so as an exclusive bound it admits them all.
var MaxKey = Key{At: math.MaxInt64, Owner: math.MaxUint64, Seq: math.MaxUint64}

// KeyAfter is the first key after every key at time t: the exclusive bound
// that makes a run inclusive of t. It saturates at MaxKey.
func KeyAfter(t time.Duration) Key {
	if t == math.MaxInt64 {
		return MaxKey
	}
	return Key{At: t + 1}
}

// Less reports whether k sorts strictly before o. It reads each key as one
// unsigned 192-bit number, At the top word, and subtracts with a borrow
// chain — SUB, SBB, SBB, no branch. Reading At unsigned is exact because a
// queued At is never negative: scheduling before now panics, and now
// starts at 0.
func (k Key) Less(o Key) bool {
	_, b := bits.Sub64(k.Seq, o.Seq, 0)
	_, b = bits.Sub64(k.Owner, o.Owner, b)
	_, b = bits.Sub64(uint64(k.At), uint64(o.At), b)
	return b != 0
}

// entry is one pending event in the queue, run buffer or spill buffer:
// the full ordering key inline plus the generation-guarded arena
// reference. Entries are 32 pointer-free bytes, so sift moves are plain
// memory moves with no GC write barrier and key comparisons stay inside
// the contiguous slice.
type entry struct {
	Key
	idx int32
	gen uint32
}

// eventHeap is a binary min-heap of entries with the comparison inlined —
// no container/heap interface dispatch on the hot path. Both directions
// move a hole instead of swapping: one 32-byte move per level.
type eventHeap []entry

//fabric:hotpath
func (h *eventHeap) push(en entry) {
	q := append(*h, en)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) >> 1
		if !en.Less(q[p].Key) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = en
	*h = q
}

// popMin walks the root's hole down to a leaf along the smaller child —
// one compare per level, whose result indexes the child instead of
// steering a branch, and no compare against the entry being placed — then
// sifts the old last entry up from there, which is rarely more than a
// level or two because it came from the bottom.
//
//fabric:hotpath
func (h *eventHeap) popMin() entry {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q = q[:n]
	*h = q
	i := 0
	for {
		c := 2*i + 1
		if c+1 >= n {
			if c < n { // a lone left child
				q[i] = q[c]
				i = c
			}
			break
		}
		c += b2i(q[c+1].Less(q[c].Key))
		q[i] = q[c]
		i = c
	}
	for i > 0 {
		p := (i - 1) >> 1
		if !last.Less(q[p].Key) {
			break
		}
		q[i] = q[p]
		i = p
	}
	if n > 0 {
		q[i] = last
	}
	return top
}

// b2i is 1 for true and 0 for false; it compiles to SETcc and a zero
// extension, no jump.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Proc is a deterministic scheduling identity bound to one Engine: the
// handle a simulated entity (a node, one direction of a link, the root
// driver) schedules its events through. Events stamped by a Proc carry the
// key (time, proc id, per-proc sequence); because the sequence advances
// only with that one entity's own scheduling actions, the key — and
// therefore the global execution order — is independent of how entities
// are distributed across shards. Procs are created by the network layer
// with globally unique ids in construction order, and rebound to a shard's
// engine when the fabric is partitioned.
//
// A Proc is not safe for concurrent use; it is driven by its engine's
// events (or by a barrier while all shards are paused).
type Proc struct {
	eng *Engine
	id  uint64
	seq uint64
}

// Init makes p the scheduling identity with the given globally unique id
// on engine e, in place: its owners hold their identities inside
// themselves (a link's two directions, the network's slab of node
// identities) instead of allocating one object each. Id 0 is reserved for
// the engine's own root identity.
func (p *Proc) Init(e *Engine, id uint64) {
	if id == 0 {
		panic("sim: Proc id 0 is reserved for the engine root")
	}
	*p = Proc{eng: e, id: id}
}

// Rebind moves the identity to another engine (fabric partitioning). The
// per-owner sequence is preserved: the entity's history is what keys its
// events, not the engine that happens to execute them.
func (p *Proc) Rebind(e *Engine) { p.eng = e }

// Engine returns the engine the identity is currently bound to.
func (p *Proc) Engine() *Engine { return p.eng }

// ID returns the owner id stamped into this identity's events.
func (p *Proc) ID() uint64 { return p.id }

// NextSeq consumes and returns the next per-owner sequence number. Normal
// scheduling does this implicitly; the cross-shard transport uses it to
// stamp an arrival's key on the sending side before shipping the event to
// the destination shard.
func (p *Proc) NextSeq() uint64 {
	s := p.seq
	p.seq++
	return s
}

// Now returns the bound engine's current virtual time.
func (p *Proc) Now() time.Duration { return p.eng.now }

// At schedules fn at absolute virtual time t under this identity.
func (p *Proc) At(t time.Duration, fn func()) *Timer {
	return p.eng.at(Key{t, p.id, p.NextSeq()}, fn)
}

// After schedules fn d after the bound engine's current time.
func (p *Proc) After(d time.Duration, fn func()) *Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return p.At(p.eng.now+d, fn)
}

// Schedule is the pooled, non-cancellable variant of At (see
// Engine.Schedule).
func (p *Proc) Schedule(t time.Duration, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	p.eng.scheduleFunc(Key{t, p.id, p.NextSeq()}, fn)
}

// ScheduleRunner enqueues r.RunEvent(arg) at absolute time t under this
// identity (see Engine.ScheduleRunner).
//
//fabric:hotpath
func (p *Proc) ScheduleRunner(t time.Duration, r Runner, arg int32) {
	if r == nil {
		panic("sim: nil event runner")
	}
	p.eng.scheduleRunner(Key{t, p.id, p.NextSeq()}, r, arg)
}

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use; all protocol code runs inside event callbacks on the
// loop's goroutine, which is how the real dataplane pipeline of a bridge is
// serialized per port anyway. In a sharded fabric there is one Engine per
// shard, each still single-threaded, synchronized by the netsim
// coordinator.
type Engine struct {
	now  time.Duration
	root Proc

	// The pending queue's two tiers: every key in queue (near) has
	// at < horizon, every key in far has at >= horizon (see roll). The
	// horizon is unsigned so that farSpan past the last representable
	// time still fits and a key at that time can sort below it.
	queue   eventHeap
	far     eventHeap
	horizon uint64

	arena     []event
	freeHead  int32 // arena free list head, -1 when empty
	rng       Stream
	processed uint64
	limit     uint64
	id        int // shard index (0 when unsharded)

	// Batched window-drain state (see drain). run is the heap's popped
	// front window, spill collects events scheduled during the batch that
	// fall inside it; both are consumed by index and reused across
	// batches. While inBatch is set, bound is the window's exclusive key
	// bound, and enqueues below it route to the spill.
	run      []entry
	runPos   int
	spill    []entry
	spillPos int
	inBatch  bool
	bound    Key

	// Key of the event currently executing — the causal stamp the tap
	// buffering layer records so per-shard tap streams can be merged into
	// the one deterministic total order.
	cur Key
}

// New returns an Engine whose random stream is seeded with seed (on its
// first draw). Two engines built with the same seed and fed the same
// schedule produce identical runs.
func New(seed int64) *Engine {
	e := &Engine{
		rng:      Stream{seed: seed},
		horizon:  farSpan,
		limit:    DefaultEventLimit,
		freeHead: -1,
	}
	e.root = Proc{eng: e}
	return e
}

// Root returns the engine's root scheduling identity (owner id 0): the
// identity of driver code outside any simulated entity. Root events sort
// before every entity's events at the same timestamp, which is what lets
// fault injection and experiment phases act as barriers in sharded runs.
func (e *Engine) Root() *Proc { return &e.root }

// ID returns the engine's shard index (0 unless assigned by SetID).
func (e *Engine) ID() int { return e.id }

// SetID assigns the engine's shard index.
func (e *Engine) SetID(id int) { e.id = id }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.rng.seed }

// Stream returns the engine's deterministic random stream.
func (e *Engine) Stream() *Stream { return &e.rng }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events still queued (including canceled
// events that have not yet been discarded). During batched execution,
// events pending in the run and spill buffers count exactly like events
// still in either heap — a handler that schedules work observes it here
// wherever the engine happens to have staged it.
func (e *Engine) Pending() int {
	return len(e.queue) + len(e.far) + (len(e.run) - e.runPos) + (len(e.spill) - e.spillPos)
}

// SetEventLimit replaces the runaway-loop backstop. n must be positive.
func (e *Engine) SetEventLimit(n uint64) {
	if n == 0 {
		panic("sim: event limit must be positive")
	}
	e.limit = n
}

// EventLimit returns the runaway-loop backstop (the sharded coordinator
// enforces the control engine's limit across all shards of one run).
func (e *Engine) EventLimit() uint64 { return e.limit }

// At schedules fn to run at absolute virtual time t under the root
// identity. Scheduling in the past is a programming error and panics;
// scheduling at the current time is allowed and runs after all previously
// scheduled root events for that time.
func (e *Engine) At(t time.Duration, fn func()) *Timer {
	return e.root.At(t, fn)
}

// alloc takes an arena slot from the free list, growing the arena when it
// is dry.
//
//fabric:hotpath
func (e *Engine) alloc() int32 {
	if e.freeHead >= 0 {
		idx := e.freeHead
		a := &e.arena[idx]
		e.freeHead = a.nextFree
		a.free = false
		return idx
	}
	e.arena = append(e.arena, event{})
	return int32(len(e.arena) - 1)
}

// release invalidates and frees one arena slot. Called before the callback
// runs so the callback may itself schedule into the recycled slot.
//
//fabric:hotpath
func (e *Engine) release(idx int32) {
	a := &e.arena[idx]
	a.gen++
	a.fn = nil
	a.runner = nil
	a.free = true
	a.nextFree = e.freeHead
	e.freeHead = idx
}

// enqueue routes a new entry to the pending structure that owns its key.
// The spill buffer takes it when a batch is executing, the key falls
// inside the current window, and it extends the spill's sorted tail —
// handlers overwhelmingly schedule in increasing key order (a fixed delta
// ahead of a non-decreasing now), so this append-only fast path catches
// nearly everything and costs O(1). Anything else — no batch running, key
// beyond the window, or out of order against the spill tail — goes to the
// heap on its side of the horizon. The batch dispatch also merges from the
// near heap, and a key inside the window is below the horizon, so spill
// versus near heap is a cost decision, never a correctness one. (An
// earlier draft binary-inserted out-of-order keys into the spill;
// same-timestamp bursts with shuffled owner ids turned that into quadratic
// memmove traffic.)
//
//fabric:hotpath
func (e *Engine) enqueue(en entry) {
	if e.inBatch && en.Less(e.bound) {
		if n := len(e.spill); n-e.spillPos < maxSpill &&
			(n == e.spillPos || !en.Less(e.spill[n-1].Key)) {
			e.spill = append(e.spill, en)
			return
		}
	}
	if uint64(en.At) >= e.horizon {
		e.far.push(en)
		return
	}
	e.queue.push(en)
}

// advance makes queue[0] the first pending key and keeps the horizon
// between farSpan/2 and farSpan ahead of it, reporting whether anything is
// pending at all. Every reader of the queue's head calls it first, and
// drain calls it once per refill; this half is the inlined common case —
// a near head the horizon is still comfortably ahead of — and costs the
// refill one compare.
//
//fabric:hotpath
func (e *Engine) advance() bool {
	if len(e.queue) > 0 && uint64(e.queue[0].At)+farSpan/2 <= e.horizon {
		return true
	}
	return e.roll()
}

// roll moves the horizon to farSpan past the first pending key — never
// backwards — and merges the far entries now below it into the near heap.
// When the near heap has run dry this is the jump that brings far's front
// over. It is the only writer of horizon and the only mover between the
// tiers, so an entry crosses once, when the first pending key has come
// within farSpan of it.
//
//fabric:hotpath
func (e *Engine) roll() bool {
	var first time.Duration
	switch {
	case len(e.queue) > 0:
		first = e.queue[0].At
	case len(e.far) > 0:
		first = e.far[0].At
	default:
		return false
	}
	if h := uint64(first) + farSpan; h > e.horizon {
		e.horizon = h
		for len(e.far) > 0 && uint64(e.far[0].At) < h {
			e.queue.push(e.far.popMin())
		}
	}
	return true
}

// at is the common keyed scheduling path behind Proc.At and Engine.At.
func (e *Engine) at(k Key, fn func()) *Timer {
	if fn == nil {
		panic("sim: nil event callback")
	}
	idx := e.scheduleFunc(k, fn)
	return &Timer{eng: e, at: k.At, idx: idx + 1, gen: e.arena[idx].gen}
}

// scheduleFunc enqueues a closure event under k and returns its arena
// slot. Without a Timer handle (only At makes one) the slot recycles the
// moment the event fires. This check of k.At against now is what keeps
// every queued At non-negative, which Key.Less relies on.
func (e *Engine) scheduleFunc(k Key, fn func()) int32 {
	if k.At < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", k.At, e.now))
	}
	idx := e.alloc()
	a := &e.arena[idx]
	a.fn = fn
	e.enqueue(entry{k, idx, a.gen})
	return idx
}

// scheduleRunner is scheduleFunc for Runner events: fully allocation-free.
//
//fabric:hotpath
func (e *Engine) scheduleRunner(k Key, r Runner, arg int32) {
	if k.At < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", k.At, e.now))
	}
	idx := e.alloc()
	a := &e.arena[idx]
	a.runner = r
	a.rarg = arg
	e.enqueue(entry{k, idx, a.gen})
}

// Schedule runs fn at absolute virtual time t like At, but returns no
// Timer handle: the event cannot be canceled, and in exchange the engine
// recycles the arena slot immediately, so steady-state scheduling does not
// allocate beyond the closure itself. The event carries the root identity.
func (e *Engine) Schedule(t time.Duration, fn func()) {
	e.root.Schedule(t, fn)
}

// ScheduleRunner enqueues r.RunEvent(arg) at absolute virtual time t under
// the root identity. Like Schedule it returns no handle and recycles the
// slot; because the callback is an interface rather than a closure, a
// caller that reuses its Runner objects schedules with zero allocations —
// the netsim hot path depends on this (via Proc.ScheduleRunner).
//
//fabric:hotpath
func (e *Engine) ScheduleRunner(t time.Duration, r Runner, arg int32) {
	e.root.ScheduleRunner(t, r, arg)
}

// ScheduleKeyed enqueues r.RunEvent(arg) under an explicit, caller-computed
// key. This is the cross-shard injection primitive: the sending shard
// stamps an arrival with its link identity's (owner, seq) and the
// coordinator inserts it here as it is sent — the key, not the insertion
// moment, decides where the event sorts, so the destination shard's
// execution order is independent of exchange timing.
func (e *Engine) ScheduleKeyed(k Key, r Runner, arg int32) {
	if r == nil {
		panic("sim: nil event runner")
	}
	e.scheduleRunner(k, r, arg)
}

// ScheduleKeyedFunc enqueues fn under an explicit, caller-computed key (the
// closure counterpart of ScheduleKeyed). netsim uses it to give
// fault-injection events an entity's partition-independent identity while
// choosing the executing engine separately: the same key lands on a shard
// engine when the fault is shard-local and on the control engine (a
// coordinator barrier) when it spans shards.
func (e *Engine) ScheduleKeyedFunc(k Key, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	e.scheduleFunc(k, fn)
}

// After schedules fn to run d after the current virtual time under the
// root identity. Negative d panics.
func (e *Engine) After(d time.Duration, fn func()) *Timer {
	return e.root.After(d, fn)
}

// execute runs one validated entry's callback: clock advance, causal
// stamp, slot release (before the call, so the callback can reuse it),
// dispatch.
//
//fabric:hotpath
func (e *Engine) execute(en *entry, a *event) {
	e.now = en.At
	e.cur = en.Key
	e.processed++
	if r := a.runner; r != nil {
		arg := a.rarg
		e.release(en.idx)
		r.RunEvent(arg)
	} else {
		fn := a.fn
		e.release(en.idx)
		fn()
	}
}

// Step executes the next pending event, if any, and reports whether one ran.
// Canceled events are discarded without counting as a step.
func (e *Engine) Step() bool {
	for e.advance() {
		en := e.queue.popMin()
		a := &e.arena[en.idx]
		if a.free || a.gen != en.gen {
			continue // canceled; entry was stale
		}
		e.execute(&en, a)
		return true
	}
	return false
}

// drain executes every pending event whose key sorts strictly before
// bound, in exact key order, and returns how many ran. It panics when the
// total processed count would
// exceed stopAt (the hoisted event-limit check: one predictable branch per
// event against a precomputed register value, instead of the old
// per-iteration limit arithmetic).
//
// Mechanics: each refill first looks at the horizon (advance), then pops
// the near heap's front window — up to maxBatch entries below the caller
// bound — into the run buffer; the window's own exclusive bound is the
// smallest of the caller bound, the next near key and the horizon. The
// batch then dispatches by merging three sorted sources: the run buffer,
// the spill buffer (events scheduled during the batch that fall inside the
// window — they skip the heap entirely, which is the point), and the near
// heap itself (reached when enqueue declined the spill: out-of-order key
// or cap overflow). The far heap is not a fourth source: every key in it
// is at or past the horizon and so outside the window. Taking the minimum
// key across the three sources every step makes the execution order
// identical to popping one event at a time, whatever the routing decided.
//
//fabric:hotpath
func (e *Engine) drain(bound Key, stopAt uint64) int {
	n := 0
	for {
		// Refill: look at the horizon, then pop the near heap's front
		// window into the run buffer.
		if !e.advance() {
			return n
		}
		e.run = e.run[:0]
		e.runPos = 0
		for len(e.run) < maxBatch && len(e.queue) > 0 {
			if !e.queue[0].Less(bound) {
				break
			}
			en := e.queue.popMin()
			if a := &e.arena[en.idx]; a.free || a.gen != en.gen {
				continue // canceled; entry was stale
			}
			e.run = append(e.run, en)
		}
		if len(e.run) == 0 {
			if len(e.queue) == 0 && len(e.far) > 0 {
				continue // popped only canceled entries; far may hold keys below the bound
			}
			return n // nothing below the bound (spill drains with its batch)
		}
		// The window bound: where the refill stopped, and no further than
		// the horizon, so no key in far is inside the window.
		w := bound
		if e.horizon <= uint64(w.At) {
			w = Key{At: time.Duration(e.horizon)}
		}
		if len(e.queue) > 0 && e.queue[0].Less(w) {
			w = e.queue[0].Key
		}
		e.inBatch = true
		e.bound = w

		for {
			var en entry
			src := -1
			if e.runPos < len(e.run) {
				en = e.run[e.runPos]
				src = 0
			}
			if e.spillPos < len(e.spill) {
				if s := &e.spill[e.spillPos]; src < 0 || s.Less(en.Key) {
					en = *s
					src = 1
				}
			}
			if len(e.queue) > 0 { // keys enqueue routed past the spill
				if h := &e.queue[0]; h.Less(w) && (src < 0 || h.Less(en.Key)) {
					src = 2
				}
			}
			switch src {
			case 0:
				e.runPos++
			case 1:
				e.spillPos++
			case 2:
				en = e.queue.popMin()
			default:
				goto batchDone
			}
			a := &e.arena[en.idx]
			if a.free || a.gen != en.gen {
				continue // canceled mid-batch
			}
			e.execute(&en, a)
			n++
			if e.processed > stopAt {
				e.inBatch = false
				e.overLimit()
			}
		}
	batchDone:
		e.inBatch = false
		e.spill = e.spill[:0]
		e.spillPos = 0
	}
}

// overLimit is the runaway-loop backstop's panic.
func (e *Engine) overLimit() {
	panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v — probable forwarding loop", e.limit, e.now))
}

// Run executes events until the queue drains. It panics if the event limit
// is exceeded, which in practice means a protocol is generating events
// faster than it consumes them (a forwarding loop).
func (e *Engine) Run() { e.drain(MaxKey, e.processed+e.limit) }

// RunUntil executes every event scheduled at or before t, then advances the
// clock to exactly t. It panics on event-limit overrun like Run.
func (e *Engine) RunUntil(t time.Duration) {
	if t < e.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, e.now))
	}
	e.drain(KeyAfter(t), e.processed+e.limit)
	e.now = t
}

// RunFor executes events for the next d of virtual time (RunUntil(Now()+d)).
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(e.now + d) }

// peek returns the timestamp of the next live event.
func (e *Engine) peek() (time.Duration, bool) {
	for e.advance() {
		h := &e.queue[0]
		if a := &e.arena[h.idx]; a.free || a.gen != h.gen {
			e.queue.popMin()
			continue
		}
		return h.At, true
	}
	return 0, false
}

// NextKey returns the full ordering key of the next pending live event,
// or MaxKey and false when nothing is pending. The coordinator folds it
// into its pending minima, and uses it to pre-stamp shard engines before
// executing a barrier event, so taps the barrier emits carry its key.
func (e *Engine) NextKey() (Key, bool) {
	if _, live := e.peek(); !live {
		return MaxKey, false
	}
	return e.queue[0].Key, true
}

// CurKey returns the ordering key of the event currently (or most
// recently) executing. The netsim tap layer records it with every buffered
// tap event so per-shard streams merge into the deterministic total order.
func (e *Engine) CurKey() Key { return e.cur }

// RunWindowKey executes every event whose key sorts strictly before bound
// and reports how many ran: the per-shard half of one conservative
// synchronization window. Unlike RunUntil it does not advance the clock to
// the bound. The key-exact bound is what lets a pending coordinator
// barrier carry an entity identity (owner > 0): shard events at the
// barrier's own timestamp with smaller keys must still run inside the
// window, exactly where the single-engine run would have executed them.
// The event-limit backstop for sharded runs lives in the coordinator (it
// spans all shards of one run), so the per-engine check is disarmed here.
func (e *Engine) RunWindowKey(bound Key) int { return e.drain(bound, math.MaxUint64) }

// SetNow advances the clock to exactly t without running anything. It
// panics when t is in the past or when an event older than t is still
// pending — the coordinator uses it to line all shards up on a barrier
// timestamp after their queues have been drained below it.
func (e *Engine) SetNow(t time.Duration) {
	if t < e.now {
		panic(fmt.Sprintf("sim: SetNow(%v) before now %v", t, e.now))
	}
	if next, ok := e.peek(); ok && next < t {
		panic(fmt.Sprintf("sim: SetNow(%v) with event pending at %v", t, next))
	}
	e.now = t
}
