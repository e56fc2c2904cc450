package sim

import (
	"fmt"
	"time"
)

// Wheel geometry: 64 fine slots of one tick each, backed by 64 coarse
// slots of 64 ticks each. Timers beyond the coarse horizon stay in the
// coarse level and cascade again when their slot comes around.
const (
	wheelFineSlots   = 64
	wheelCoarseSlots = 64
)

// WheelTimer is a handle to a timer armed on a Wheel. The zero value is
// not a valid handle; Stop and Active treat it as already fired.
type WheelTimer struct {
	idx int32  // arena slot + 1 (0 = invalid)
	gen uint32 // generation guard against arena reuse
}

// wheelLive marks a live arena slot in the nextFree column: free slots
// hold the next free index (or -1 at the list tail), so one sentinel
// doubles as the liveness flag and keeps the arena at four columns.
const wheelLive int32 = -2

// slotRef is a reference from a slot to an arena entry. The generation is
// checked when the slot drains so canceled timers are skipped without the
// cancel path ever touching slot storage.
type slotRef struct {
	idx int32
	gen uint32
}

// Wheel is a coarse hierarchical timer wheel driven by an Engine. It
// exists for the protocol timers that are armed per flow and usually
// canceled (ARP-Path repair and lock windows): a heap timer costs one
// event allocation and O(log n) heap churn per arm/cancel, while the
// wheel arms into a recycled arena slot and cancels with a generation
// bump. The price is coarseness — callbacks fire on the first tick
// boundary at or after their deadline, never early, up to one tick late.
//
// The timer arena is laid out struct-of-arrays: the drain and cascade
// loops touch only the gen column (stale-ref check) and the fireTick
// column (due check), so skipping a canceled timer reads eight bytes
// instead of dragging a 40-byte entry with its callback pointer through
// the cache. The fn column is loaded only for timers that actually fire.
//
// The wheel only ticks while timers are armed, so it never keeps an
// otherwise-drained Engine.Run alive.
type Wheel struct {
	p      *Proc
	tick   time.Duration
	fine   [wheelFineSlots][]slotRef
	coarse [wheelCoarseSlots][]slotRef
	// Arena columns, indexed by slot. Entries are reused through the free
	// list threaded into nextFree, so arming timers in steady state does
	// not allocate; the generation counter invalidates stale WheelTimer
	// handles cheaply, which is what makes cancellation O(1) with no heap
	// fix-up.
	gen      []uint32
	fireTick []int64
	fn       []func()
	nextFree []int32
	free     int32     // head of the arena free list, -1 when empty
	active   int       // armed (non-canceled) timers
	curTick  int64     // last processed tick number
	ticking  bool      // a tick event is pending on the engine
	scratch  []slotRef // cascade staging: slot slices share storage with
	// the refs being walked, and a multi-lap entry may re-place into the
	// very slot being drained, so cascading iterates a detached copy.
}

// NewWheel creates a wheel with the given tick granularity on e, with tick
// events carried by the engine's root identity.
func NewWheel(e *Engine, tick time.Duration) *Wheel {
	return NewWheelOn(e.Root(), tick)
}

// NewWheelOn creates a wheel whose tick events are scheduled under the
// given identity — a bridge's repair wheel ticks as that bridge, keeping
// the event order partition-independent.
func NewWheelOn(p *Proc, tick time.Duration) *Wheel {
	if tick <= 0 {
		panic("sim: wheel tick must be positive")
	}
	return &Wheel{p: p, tick: tick, free: -1, curTick: int64(p.Now() / tick)}
}

// Len returns the number of armed timers.
func (w *Wheel) Len() int { return w.active }

// After arms fn to fire on the first tick boundary at or after d from
// now. It returns a handle for Stop; unlike Engine.After no per-timer
// event is allocated.
func (w *Wheel) After(d time.Duration, fn func()) WheelTimer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative wheel delay %v", d))
	}
	if fn == nil {
		panic("sim: nil wheel callback")
	}
	// The wheel stops ticking when it empties, so the cursor may lag far
	// behind virtual time; catch it up before arming or the next tick
	// would be scheduled in the past. Stale slot references from before
	// the jump are dead (their arena generations were bumped) and get
	// skipped when their slots eventually drain.
	if w.active == 0 && !w.ticking {
		if nt := int64(w.p.Now() / w.tick); nt > w.curTick {
			w.curTick = nt
		}
	}
	deadline := w.p.Now() + d
	// ceil(deadline/tick), but at least one tick ahead of the cursor so
	// the callback never fires synchronously or in the past.
	fire := int64((deadline + w.tick - 1) / w.tick)
	if fire <= w.curTick {
		fire = w.curTick + 1
	}

	idx := w.alloc()
	w.fireTick[idx] = fire
	w.fn[idx] = fn
	g := w.gen[idx]
	w.place(slotRef{idx: idx, gen: g}, fire)
	w.active++
	w.ensureTicking()
	return WheelTimer{idx: idx + 1, gen: g}
}

// Stop cancels the timer. It reports whether the call prevented the
// callback from firing; stopping a zero, fired, or already-stopped timer
// returns false. Cancellation is O(1): the arena entry is invalidated by
// a generation bump and freed, and the stale slot reference is skipped
// when its slot drains.
func (w *Wheel) Stop(t WheelTimer) bool {
	if t.idx == 0 {
		return false
	}
	idx := t.idx - 1
	if int(idx) >= len(w.gen) {
		return false
	}
	if w.nextFree[idx] != wheelLive || w.gen[idx] != t.gen {
		return false
	}
	w.release(idx)
	w.active--
	return true
}

// Active reports whether the timer is still armed.
func (w *Wheel) Active(t WheelTimer) bool {
	if t.idx == 0 {
		return false
	}
	idx := t.idx - 1
	return int(idx) < len(w.gen) && w.nextFree[idx] == wheelLive && w.gen[idx] == t.gen
}

// alloc takes an arena index from the free list, growing every column
// when it is dry.
//
//fabric:hotpath
func (w *Wheel) alloc() int32 {
	if w.free >= 0 {
		idx := w.free
		w.free = w.nextFree[idx]
		w.nextFree[idx] = wheelLive
		return idx
	}
	w.gen = append(w.gen, 0)
	w.fireTick = append(w.fireTick, 0)
	w.fn = append(w.fn, nil)
	w.nextFree = append(w.nextFree, wheelLive)
	return int32(len(w.gen) - 1)
}

// release invalidates and frees one arena entry.
//
//fabric:hotpath
func (w *Wheel) release(idx int32) {
	w.gen[idx]++
	w.fn[idx] = nil
	w.nextFree[idx] = w.free
	w.free = idx
}

// place files a reference into the fine or coarse level by distance from
// the cursor.
//
//fabric:hotpath
func (w *Wheel) place(r slotRef, fire int64) {
	if fire-w.curTick < wheelFineSlots {
		s := int(fire % wheelFineSlots)
		w.fine[s] = append(w.fine[s], r)
	} else {
		s := int((fire / wheelFineSlots) % wheelCoarseSlots)
		w.coarse[s] = append(w.coarse[s], r)
	}
}

// ensureTicking schedules the next tick event unless one is pending.
func (w *Wheel) ensureTicking() {
	if w.ticking || w.active == 0 {
		return
	}
	w.ticking = true
	w.p.ScheduleRunner(time.Duration(w.curTick+1)*w.tick, w, 0)
}

// RunEvent implements Runner: one wheel tick. It advances the cursor,
// cascades the coarse slot on fine-wheel wrap-around, drains the due fine
// slot, and re-arms itself while timers remain.
//
//fabric:hotpath
func (w *Wheel) RunEvent(int32) {
	w.ticking = false
	w.curTick++

	// Cascade the coarse slot that covers the fine window we just entered.
	if w.curTick%wheelFineSlots == 0 {
		s := int((w.curTick / wheelFineSlots) % wheelCoarseSlots)
		w.scratch = append(w.scratch[:0], w.coarse[s]...)
		w.coarse[s] = w.coarse[s][:0]
		for _, r := range w.scratch {
			if w.gen[r.idx] != r.gen {
				continue // canceled; reference was stale
			}
			w.place(r, w.fireTick[r.idx])
		}
	}

	// Drain the due fine slot.
	s := int(w.curTick % wheelFineSlots)
	refs := w.fine[s]
	w.fine[s] = w.fine[s][:0]
	for _, r := range refs {
		if w.gen[r.idx] != r.gen {
			continue
		}
		if ft := w.fireTick[r.idx]; ft > w.curTick {
			// A coarse resident parked here >64 ticks out: not due yet.
			w.place(r, ft)
			continue
		}
		fn := w.fn[r.idx]
		w.release(r.idx)
		w.active--
		fn()
	}
	w.ensureTicking()
}

var _ Runner = (*Wheel)(nil)
