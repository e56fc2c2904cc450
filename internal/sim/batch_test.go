package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// TestPendingCountsBufferedEvents pins the queue-size accounting across
// the batched path's three pending structures: a handler that schedules
// work mid-batch must see it in Pending() whether the engine staged it in
// the run buffer, the spill buffer, or the heap.
func TestPendingCountsBufferedEvents(t *testing.T) {
	e := New(1)
	var inside []int
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Microsecond, func() {})
	}
	// At t=10µs: schedule one event into the current window (same
	// timestamp ⇒ spill or heap), one at a future time (heap), then
	// record what Pending reports from inside the handler.
	e.Schedule(10*time.Microsecond, func() {
		e.Schedule(10*time.Microsecond, func() {})
		e.Schedule(20*time.Microsecond, func() {})
		inside = append(inside, e.Pending())
	})
	e.Run()
	if len(inside) != 1 || inside[0] != 2 {
		t.Fatalf("Pending inside handler = %v, want [2]", inside)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
	if e.Processed() != 8 {
		t.Fatalf("processed %d events, want 8", e.Processed())
	}
}

// TestPendingCountsCanceledInBuffers mirrors the long-standing heap
// semantics on the batched path: canceled events still count in Pending
// until the queue discards them lazily.
func TestPendingCountsCanceledInBuffers(t *testing.T) {
	e := New(1)
	var tm *Timer
	e.Schedule(time.Microsecond, func() {
		tm = e.At(5*time.Microsecond, func() { t.Fatal("canceled event ran") })
		tm.Stop()
	})
	e.Run()
	if !tm.Stopped() {
		t.Fatal("Stop did not take")
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
}

// execRecord is one executed event in a differential log.
type execRecord struct {
	at          time.Duration
	owner, oseq uint64
	tag         int
}

// less is the model's own (at, owner, oseq) order, written out plainly so
// the oracle shares no comparator with the queue it judges.
func (r execRecord) less(o execRecord) bool {
	if r.at != o.at {
		return r.at < o.at
	}
	if r.owner != o.owner {
		return r.owner < o.owner
	}
	return r.oseq < o.oseq
}

// keyRecord is the model's view of an engine key.
func keyRecord(k Key) execRecord { return execRecord{at: k.At, owner: k.Owner, oseq: k.Seq} }

// workloadRun is what one randomized scheduling storm left behind: the
// engine's execution log, and a reference model kept beside the engine
// that shares nothing with its queue — every scheduled event under the key
// the model stamped itself (its own per-owner counters), the set canceled
// while still due, and which events a handler scheduled below its own key.
// The run itself fails the test at the first disagreement between the two,
// above all an event that ran while the model held a smaller pending key.
type workloadRun struct {
	log       []execRecord
	scheduled []execRecord // indexed by tag
	canceled  map[int]bool
	early     map[int]bool // scheduled below the key that was executing
}

// runRandomWorkload drives one randomized scheduling storm on a fresh
// engine. The workload is built to stress every pending structure: bursts
// of events sharing one timestamp (shuffled owner order, so spill appends
// go out of order and fall back to the heap), cascades scheduled from
// inside handlers at the current timestamp and at tiny deltas (landing
// inside the live window), delays from hundreds of µs to seconds (parked
// in the far heap, crossing the horizon later, and leaving the near heap
// dry in between), timer cancellations wherever the entry is staged
// (run/spill/near/far), and occasional short jumps (forcing window
// turnover). Every third handler also reads the queue's head mid-batch,
// as the shard coordinator does, which may roll the horizon under the
// running batch; the head it reads must be an event the model still
// holds. sliced drives the engine by RunFor slices instead of one Run, so
// drains stop short of far events and pick them up later; the execution
// order must not depend on it.
func runRandomWorkload(t *testing.T, seed int64, sliced bool) workloadRun {
	t.Helper()
	e := New(seed)
	rng := rand.New(rand.NewSource(seed))
	procs := make([]*Proc, 8)
	seqs := make([]uint64, len(procs)) // the model's per-owner sequence counters
	for i := range procs {
		procs[i] = new(Proc)
		procs[i].Init(e, uint64(i+1))
	}
	r := workloadRun{canceled: map[int]bool{}, early: map[int]bool{}}
	pending := map[int]bool{} // the model's queue: tags neither run nor canceled
	fault := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d sliced=%v: %s", seed, sliced, fmt.Sprintf(format, args...))
	}
	type armed struct {
		tm  *Timer
		tag int
	}
	var timers []armed
	var spawn func(pi int, at time.Duration, depth int, cancellable bool)
	spawn = func(pi int, at time.Duration, depth int, cancellable bool) {
		id := len(r.scheduled)
		key := execRecord{at: at, owner: uint64(pi + 1), oseq: seqs[pi], tag: id}
		seqs[pi]++
		r.scheduled = append(r.scheduled, key)
		pending[id] = true
		if key.less(keyRecord(e.CurKey())) {
			r.early[id] = true // same timestamp, smaller owner: legitimately runs next
		}
		fn := func() {
			got := keyRecord(e.CurKey())
			got.tag = id
			if got != key {
				fault("tag %d ran under key %+v, model stamped %+v", id, got, key)
			}
			if !pending[id] {
				fault("tag %d ran twice or after its cancellation", id)
			}
			delete(pending, id)
			for tag := range pending {
				if r.scheduled[tag].less(key) {
					fault("tag %d ran under %+v while %+v was still pending", id, key, r.scheduled[tag])
					break
				}
			}
			r.log = append(r.log, got)
			checkTiers(e, fault)
			if id%3 == 0 {
				if k, ok := e.NextKey(); ok {
					head := keyRecord(k)
					live := false
					for tag := range pending {
						if rec := r.scheduled[tag]; rec.at == head.at && rec.owner == head.owner && rec.oseq == head.oseq {
							live = true
							break
						}
					}
					if !live {
						fault("NextKey inside tag %d = %+v, which the model has already run or canceled", id, head)
					}
				}
				checkTiers(e, fault)
			}
			if depth >= 3 {
				return
			}
			n := rng.Intn(4)
			for i := 0; i < n; i++ {
				pi := rng.Intn(len(procs))
				var d time.Duration
				far := false
				switch rng.Intn(6) {
				case 0: // same timestamp, possibly smaller owner: window head
					d = 0
				case 1: // inside the live window
					d = time.Duration(rng.Intn(3)) * time.Nanosecond
				case 2: // near future
					d = time.Duration(rng.Intn(500)) * time.Nanosecond
				case 3: // short jump
					d = time.Duration(1+rng.Intn(5)) * time.Microsecond
				case 4: // around and past the horizon
					d = time.Duration(100+rng.Intn(900)) * time.Microsecond
					far = true
				default: // protocol-timer range: ms to s
					d = time.Duration(1+rng.Intn(3000)) * time.Millisecond
					far = true
				}
				// Far timers are cancellable half the time, so stale
				// entries sit in the far heap and cross the horizon.
				spawn(pi, e.Now()+d, depth+1, rng.Intn(5) == 0 || far && rng.Intn(2) == 0)
			}
			// Cancel a random outstanding timer now and then, wherever its
			// entry happens to be staged.
			if len(timers) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(timers))
				a := timers[i]
				if stopped := a.tm.Stop(); stopped != pending[a.tag] {
					fault("Stop(tag %d) = %v, but the model has pending = %v", a.tag, stopped, pending[a.tag])
				} else if stopped {
					delete(pending, a.tag)
					r.canceled[a.tag] = true
				}
				timers[i] = timers[len(timers)-1]
				timers = timers[:len(timers)-1]
			}
		}
		if cancellable {
			timers = append(timers, armed{procs[pi].At(at, fn), id})
		} else {
			procs[pi].Schedule(at, fn)
		}
	}
	// Seed bursts: many events at identical timestamps under shuffled
	// owners, plus a sprinkle of distinct times.
	for burst := 0; burst < 6; burst++ {
		at := time.Duration(burst) * 300 * time.Nanosecond
		for _, pi := range rng.Perm(len(procs)) {
			for k := 0; k < 3; k++ {
				spawn(pi, at, 0, false)
			}
		}
	}
	if !sliced {
		e.Run()
		return r
	}
	slices := rand.New(rand.NewSource(seed ^ 0x5eed)) // not rng: the workload must not see the pacing
	for e.Pending() > 0 {
		e.RunFor(time.Duration(1+slices.Intn(400)) * time.Millisecond)
	}
	return r
}

// checkTiers asserts the two-tier invariant from inside a handler: every
// near key sorts before the horizon, every far key at or after it.
func checkTiers(e *Engine, fault func(string, ...any)) {
	for i := range e.queue {
		if uint64(e.queue[i].At) >= e.horizon {
			fault("near heap holds t=%v at or past horizon %d", e.queue[i].At, e.horizon)
		}
	}
	for i := range e.far {
		if uint64(e.far[i].At) < e.horizon {
			fault("far heap holds t=%v below horizon %d", e.far[i].At, e.horizon)
		}
	}
}

// TestFarTierMatchesSortedReference is the queue's oracle, one that shares
// nothing with it. Every run, plain and sliced, is held to the model in
// workloadRun: each event ran while no smaller key was pending; the log's
// keys strictly increase in (at, owner, oseq), except at an event a handler
// scheduled below its own key; and the set that ran is exactly scheduled
// minus canceled-while-due. A key left behind in the wrong tier surfaces as
// an event that runs late (order) or never (set).
func TestFarTierMatchesSortedReference(t *testing.T) {
	modes := []struct {
		name   string
		sliced bool
	}{{"plain", false}, {"sliced", true}}
	for _, m := range modes {
		parked := 0
		for seed := int64(1); seed <= 24; seed++ {
			r := runRandomWorkload(t, seed, m.sliced)
			for i := 1; i < len(r.log); i++ {
				if !r.log[i-1].less(r.log[i]) && !r.early[r.log[i].tag] {
					t.Fatalf("%s seed %d: event %d key %+v does not sort after %+v",
						m.name, seed, i, r.log[i], r.log[i-1])
				}
			}
			var want []execRecord
			for tag, k := range r.scheduled {
				if !r.canceled[tag] {
					want = append(want, k)
				}
				if k.at >= farSpan {
					parked++
				}
			}
			got := append([]execRecord(nil), r.log...)
			sort.Slice(got, func(i, j int) bool { return got[i].less(got[j]) })
			sort.Slice(want, func(i, j int) bool { return want[i].less(want[j]) })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: ran %d events, reference has %d (scheduled %d, canceled %d), or the sets differ",
					m.name, seed, len(got), len(want), len(r.scheduled), len(r.canceled))
			}
		}
		if parked == 0 {
			t.Fatalf("%s: workload never scheduled past the first horizon", m.name)
		}
	}
}

// TestFarTierEdges pins the places where the two tiers meet the engine's
// API.
func TestFarTierEdges(t *testing.T) {
	const far = time.Second // well past the first horizon
	nop := func() {}
	mustPanic := func(t *testing.T, what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	cases := []struct {
		name string
		run  func(t *testing.T, e *Engine)
	}{
		{"head reads with the near heap empty", func(t *testing.T, e *Engine) {
			p := new(Proc)
			p.Init(e, 4)
			dead := p.At(far/2, nop)
			p.Schedule(far, nop)
			dead.Stop()
			if len(e.queue) != 0 || len(e.far) != 2 {
				t.Fatalf("setup: near %d far %d, want 0 and 2", len(e.queue), len(e.far))
			}
			if got := e.Pending(); got != 2 {
				t.Fatalf("Pending = %d, want 2 (canceled entries count until discarded)", got)
			}
			if at, ok := e.NextEventAt(); !ok || at != far {
				t.Fatalf("NextEventAt = %v, %v, want %v", at, ok, far)
			}
			if k, ok := e.NextKey(); !ok || k != (Key{far, 4, 1}) {
				t.Fatalf("NextKey = (%+v, %v), want ({%v 4 1}, true)", k, ok, far)
			}
			if got := e.Pending(); got != 1 {
				t.Fatalf("Pending after the head read = %d, want 1", got)
			}
		}},
		{"a key at the horizon is far", func(t *testing.T, e *Engine) {
			e.Schedule(farSpan-1, nop)
			e.Schedule(farSpan, nop)
			if len(e.queue) != 1 || len(e.far) != 1 || e.far[0].At != farSpan {
				t.Fatalf("near %d far %d with the horizon at %d", len(e.queue), len(e.far), e.horizon)
			}
			e.Run()
			if e.Processed() != 2 {
				t.Fatalf("processed %d events, want 2", e.Processed())
			}
		}},
		{"SetNow sees a far-only event", func(t *testing.T, e *Engine) {
			e.Schedule(far, nop)
			e.SetNow(far) // an event at exactly t is not older than t
			mustPanic(t, "SetNow past a far-only event", func() { e.SetNow(far + 1) })
		}},
		{"RunUntil stops short of a far event", func(t *testing.T, e *Engine) {
			var ran []time.Duration
			rec := func() { ran = append(ran, e.Now()) }
			e.Schedule(10*time.Microsecond, rec)
			e.Schedule(far, rec)
			e.RunUntil(far / 2)
			e.RunUntil(far - 1)
			if len(ran) != 1 || e.Now() != far-1 || e.Pending() != 1 {
				t.Fatalf("before the far event: ran %v, now %v, pending %d", ran, e.Now(), e.Pending())
			}
			e.RunUntil(far)
			if len(ran) != 2 || ran[1] != far || e.Pending() != 0 {
				t.Fatalf("at the far event: ran %v, pending %d", ran, e.Pending())
			}
		}},
		{"only canceled entries before a far event", func(t *testing.T, e *Engine) {
			ran := false
			e.At(10*time.Microsecond, nop).Stop()
			e.At(20*time.Microsecond, nop).Stop()
			e.Schedule(far, func() { ran = true })
			e.Run()
			if !ran || e.Pending() != 0 {
				t.Fatalf("far event ran = %v, pending %d", ran, e.Pending())
			}
		}},
		{"keyed injection between windows", func(t *testing.T, e *Engine) {
			var got []execRecord
			rec := recorder{e: e, log: &got}
			e.ScheduleKeyed(Key{300 * time.Microsecond, 5, 0}, rec, 0)
			e.ScheduleKeyed(Key{far, 5, 1}, rec, 0)
			if n := e.RunWindowKey(Key{At: 100 * time.Microsecond}); n != 0 {
				t.Fatalf("first window ran %d events, want 0", n)
			}
			// The window looked at the head, so the horizon now sits past
			// it: these land below it, beside it and beyond it.
			rolled := e.horizon
			if rolled <= uint64(300*time.Microsecond) {
				t.Fatalf("horizon %d did not roll past the head", rolled)
			}
			e.ScheduleKeyed(Key{200 * time.Microsecond, 9, 0}, rec, 0)
			if at, _ := e.NextEventAt(); at != 200*time.Microsecond || e.horizon != rolled {
				t.Fatalf("a new, earlier head at %v moved the horizon %d -> %d", at, rolled, e.horizon)
			}
			e.ScheduleKeyed(Key{300 * time.Microsecond, 2, 7}, rec, 0)
			e.ScheduleKeyed(Key{far / 2, 1, 0}, rec, 0)
			if n := e.RunWindowKey(Key{far, 5, 1}); n != 4 {
				t.Fatalf("second window ran %d events, want 4", n)
			}
			e.RunWindowKey(Key{far, 5, 2})
			want := []execRecord{
				{at: 200 * time.Microsecond, owner: 9},
				{at: 300 * time.Microsecond, owner: 2, oseq: 7},
				{at: 300 * time.Microsecond, owner: 5},
				{at: far / 2, owner: 1},
				{at: far, owner: 5, oseq: 1},
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ran %+v, want %+v", got, want)
			}
		}},
		{"equal timestamps on either side of a merge", func(t *testing.T, e *Engine) {
			const at = time.Millisecond
			var got []execRecord
			rec := recorder{e: e, log: &got}
			e.ScheduleKeyed(Key{at, 7, 0}, rec, 0) // parks in far
			e.Schedule(at-farSpan/2, func() {
				// The refill that ran this rolled the horizon past at and
				// merged owner 7 across; its peers go straight to near.
				if len(e.far) != 0 {
					t.Fatalf("owner 7 still parked with the horizon at %d", e.horizon)
				}
				e.ScheduleKeyed(Key{at, 9, 0}, rec, 0)
				e.ScheduleKeyed(Key{at, 3, 0}, rec, 0)
			})
			if len(e.far) != 2 {
				t.Fatalf("setup: far holds %d entries, want 2", len(e.far))
			}
			e.Run()
			want := []execRecord{{at: at, owner: 3}, {at: at, owner: 7}, {at: at, owner: 9}}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("ran %+v, want %+v", got, want)
			}
		}},
		{"a schedule at the last representable time", func(t *testing.T, e *Engine) {
			var ran []time.Duration
			rec := func() { ran = append(ran, e.Now()) }
			e.Schedule(MaxKey.At, rec)
			e.Schedule(time.Microsecond, rec)
			if at, ok := e.NextEventAt(); !ok || at != time.Microsecond {
				t.Fatalf("NextEventAt = %v, %v", at, ok)
			}
			e.Run()
			if len(ran) != 2 || ran[1] != MaxKey.At || e.Pending() != 0 {
				t.Fatalf("ran %v, pending %d", ran, e.Pending())
			}
			if e.horizon <= uint64(MaxKey.At) {
				t.Fatalf("horizon %d wrapped or stopped short of t=%d", e.horizon, MaxKey.At)
			}
			e.Schedule(MaxKey.At, rec) // nothing can park any more
			if len(e.far) != 0 || !e.Step() {
				t.Fatalf("second event at the last time: far %d", len(e.far))
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { c.run(t, New(1)) })
	}
}

// recorder is a Runner that logs the key it ran under.
type recorder struct {
	e   *Engine
	log *[]execRecord
}

func (r recorder) RunEvent(int32) {
	*r.log = append(*r.log, keyRecord(r.e.CurKey()))
}

// TestSpillOverflowKeepsOrder overflows the spill cap from inside a single
// window — far more same-timestamp events than maxSpill, scheduled in
// shuffled owner order so most inserts also fail the monotonic-append rule
// — and asserts the engine still executes every event in exact
// (time, owner, oseq) order via the heap-merge fallback.
func TestSpillOverflowKeepsOrder(t *testing.T) {
	e := New(7)
	rng := rand.New(rand.NewSource(7))
	const owners = 64
	procs := make([]*Proc, owners)
	for i := range procs {
		procs[i] = new(Proc)
		procs[i].Init(e, uint64(i+1))
	}
	var log []execRecord
	record := func() { log = append(log, keyRecord(e.CurKey())) }
	const at = time.Microsecond
	e.Schedule(at, func() {
		// 2×maxSpill+64 events, all at the executing timestamp, owners
		// shuffled: the window bound is beyond them all, so every one is
		// spill-eligible and most must overflow or divert to the heap.
		for i := 0; i < 2*maxSpill+64; i++ {
			procs[rng.Intn(owners)].Schedule(at, record)
		}
	})
	e.Run()
	if len(log) != 2*maxSpill+64 {
		t.Fatalf("ran %d events, want %d", len(log), 2*maxSpill+64)
	}
	for i := 1; i < len(log); i++ {
		p, c := log[i-1], log[i]
		if c.at != p.at {
			t.Fatalf("event %d: time moved %v -> %v inside a same-time burst", i, p.at, c.at)
		}
		if c.owner < p.owner || (c.owner == p.owner && c.oseq <= p.oseq) {
			t.Fatalf("event %d: key order violated: (%d,%d) after (%d,%d)",
				i, c.owner, c.oseq, p.owner, p.oseq)
		}
	}
}
