package tables

import (
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// State is the state of a path-table entry.
type State uint8

// Entry states.
const (
	// StateLocked marks a key locked to the port where the first copy of a
	// discovery flood arrived; the race window. Frames for that key
	// arriving on other ports are discarded while the lock is live.
	StateLocked State = iota
	// StateLearned marks a confirmed path entry (the ARP/Path Reply passed
	// through, or traffic refreshed it).
	StateLearned
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateLocked:
		return "locked"
	case StateLearned:
		return "learned"
	default:
		return "state(?)"
	}
}

// Entry is one path-table binding.
type Entry struct {
	Port    *netsim.Port
	State   State
	Expires time.Duration
	// LockedUntil is the end of the race window. While it lies in the
	// future, the binding's port must not move: copies of the flood
	// arriving on other ports are discarded even if the entry has already
	// been confirmed (learned) by the returning reply. Without this guard
	// a slow race copy arriving after confirmation would steal the lock
	// and drag the path onto the slower branch. A table that never locks
	// (the learning switch's) leaves it 0: every entry is evictable.
	LockedUntil time.Duration
}

// Guarded reports whether the race window is still open at time now.
func (e Entry) Guarded(now time.Duration) bool { return now < e.LockedUntil }

// stored is the map value: the public Entry plus the generation of its
// port at bind time. A port's generation advances on FlushPort, which
// kills every entry bound to it in O(1) without touching the map. The
// portState pointer is cached in the entry so the hot-path liveness check
// costs a pointer chase, not a second map lookup.
type stored struct {
	Entry
	gen uint32
	ps  *portState
	th  Handle // recency-tracker handle; 0 when untracked
}

// portState is the per-port side table backing constant-time flushes.
type portState struct {
	gen  uint32 // current generation; entries with an older gen are dead
	live int    // resident entries bound to this port at the current gen
}

// Table is the All-Path family's one piece of forwarding state: key →
// (port, locked|learned, expiry). The variants differ only in the key —
// the packed MAC for ARP-Path and the learning switch, a directed
// {source, destination} pair for Flow-Path, a connection 4-tuple for
// TCP-Path — so they share this body and instantiate it per key type.
// There is no routing protocol and no tree behind it (§1).
//
// Expiry is lazy (checked on access) and link failures are handled by
// per-port generation counters, so no operation on the hot path scans the
// table.
//
// Production bounds (DESIGN.md §12): the table may be capacity-bounded
// with an LRU or clock eviction policy. The bound counts map entries —
// live bindings and flushed-generation corpses alike — so it bounds actual
// memory, not just Len(). Corpses and expired entries are additionally
// reclaimed by an amortized sweep (one full pass per learned timeout,
// proxyCache-style) so even the unbounded configuration cannot leak under
// churn of never-reused keys plus FlushPort.
type Table[K comparable] struct {
	lockTimeout    time.Duration
	learnedTimeout time.Duration
	capacity       int
	junk           func(K) bool // keys Lock/Learn must ignore; nil admits all
	tracker        *Tracker[K]  // nil for the timeout baseline
	entries        map[K]stored
	ports          map[*netsim.Port]*portState
	resident       int // entries in the map whose port generation is current

	evictions uint64        // capacity evictions of live entries (not corpse reclaim)
	peak      int           // high-water mark of len(entries)
	nextSweep time.Duration // next amortized FlushExpired deadline

	// One-slot cache for the port side table: a bridge stores runs of
	// entries against the same handful of ports, so this turns the
	// per-store ports-map lookup into a pointer compare.
	lastPort *netsim.Port
	lastPS   *portState
}

// View is the key-independent face of a Table: what the harnesses need to
// count and sweep a bridge's tables without knowing the protocol.
type View interface {
	Len() int
	Entries() int
	PeakEntries() int
	Evictions() uint64
	FlushExpired(now time.Duration)
}

// JunkMAC reports whether a packed MAC is one no table may bind: a
// multicast/broadcast address (invalid as a source on the wire) or the
// zero MAC. It is the junk predicate of every MAC-keyed table.
func JunkMAC(key uint64) bool { return layers.KeyIsMulticast(key) || key == 0 }

// New builds an empty table with the two timeouts — the short race window
// for locked entries and the long lifetime for confirmed (learned) ones —
// a capacity bound (the zero Config is the unbounded timeout baseline) and
// an optional junk predicate naming keys that must never pin a slot.
func New[K comparable](lockTimeout, learnedTimeout time.Duration, bound Config, junk func(K) bool) *Table[K] {
	if lockTimeout <= 0 || learnedTimeout <= 0 {
		panic("tables: timeouts must be positive")
	}
	if err := bound.Validate(); err != nil {
		panic(err.Error())
	}
	t := &Table[K]{
		lockTimeout:    lockTimeout,
		learnedTimeout: learnedTimeout,
		capacity:       bound.Capacity,
		junk:           junk,
		entries:        make(map[K]stored),
		ports:          make(map[*netsim.Port]*portState),
	}
	if bound.Tracked() {
		t.tracker = NewTracker[K](bound.Policy)
	}
	return t
}

// LearnedTimeout returns the lifetime given to learned entries.
func (t *Table[K]) LearnedTimeout() time.Duration { return t.learnedTimeout }

// SetLearnedTimeout changes the learned lifetime (and sweep period) for
// future writes; existing entries keep their deadlines until rewritten or
// flushed. 802.1D shortens its aging this way during topology changes.
func (t *Table[K]) SetLearnedTimeout(d time.Duration) {
	if d <= 0 {
		panic("tables: timeouts must be positive")
	}
	t.learnedTimeout = d
}

func (t *Table[K]) port(p *netsim.Port) *portState {
	if p == t.lastPort {
		return t.lastPS
	}
	st, ok := t.ports[p]
	if !ok {
		st = &portState{}
		t.ports[p] = st
	}
	t.lastPort, t.lastPS = p, st
	return st
}

// dead reports whether a stored entry is no longer valid at now: past its
// expiry, or bound to a port generation that has been flushed.
func (t *Table[K]) dead(e stored, now time.Duration) bool {
	return e.Expires <= now || e.gen != e.ps.gen
}

// evict removes a stored entry, maintaining the residency counters.
func (t *Table[K]) evict(key K, e stored) {
	if e.gen == e.ps.gen {
		e.ps.live--
		t.resident--
	}
	if t.tracker != nil {
		t.tracker.Remove(e.th)
	}
	delete(t.entries, key)
}

// maybeSweep runs the amortized corpse sweep: at most one full
// FlushExpired per learned timeout, charged to the write that crossed the
// deadline (proxyCache's discipline). Callers must invoke it before
// snapshotting the previous entry — the sweep may evict the very key about
// to be overwritten.
func (t *Table[K]) maybeSweep(now time.Duration) {
	if now >= t.nextSweep {
		t.FlushExpired(now)
		t.nextSweep = now + t.learnedTimeout
	}
}

// makeRoom enforces the capacity bound before a new key is inserted.
// Victims come from the recency tracker in deterministic order; dead
// entries (corpses, expired) are reclaimed for free, live unguarded
// entries are force-evicted (counted), and entries inside their §2.1.1
// race window are never evicted — moving a binding mid-race would reopen
// the loop/duplication hazards the lock exists to prevent. Guarded
// rejections are budgeted (RejectBudget): when the budget runs out the
// table admits over capacity, keeping each insert O(1) even when open
// race windows dominate the table; the overshoot is bounded by the number
// of concurrently open windows.
func (t *Table[K]) makeRoom(now time.Duration) {
	if t.tracker == nil || t.capacity <= 0 {
		return
	}
	for rejects := RejectBudget; len(t.entries) >= t.capacity; {
		h, ok := t.tracker.Victim()
		if !ok {
			return
		}
		key := t.tracker.Key(h)
		e := t.entries[key]
		switch {
		case t.dead(e, now):
			t.evict(key, e)
		case !e.Guarded(now):
			t.evictions++
			t.evict(key, e)
		default:
			t.tracker.Reject(h)
			if rejects--; rejects <= 0 {
				return
			}
		}
	}
}

// store writes e under key given the previous entry (old, hadOld) from a
// lookup the caller already paid for, maintaining the residency counters,
// the recency tracker and the capacity bound.
func (t *Table[K]) store(key K, old stored, hadOld bool, e Entry, now time.Duration) {
	if hadOld && old.gen == old.ps.gen {
		old.ps.live--
		t.resident--
	}
	if !hadOld && t.capacity > 0 && len(t.entries) >= t.capacity {
		t.makeRoom(now)
	}
	st := t.port(e.Port)
	st.live++
	t.resident++
	ne := stored{Entry: e, gen: st.gen, ps: st}
	if t.tracker != nil {
		if hadOld {
			ne.th = old.th
			t.tracker.Touch(ne.th)
		} else {
			ne.th = t.tracker.Insert(key)
		}
	}
	t.entries[key] = ne
	if len(t.entries) > t.peak {
		t.peak = len(t.entries)
	}
}

// Get returns the live entry for key, evicting it lazily if expired or
// flushed.
//
//fabric:hotpath
func (t *Table[K]) Get(key K, now time.Duration) (Entry, bool) {
	e, ok := t.entries[key]
	if !ok {
		return Entry{}, false
	}
	if t.dead(e, now) {
		t.evict(key, e)
		return Entry{}, false
	}
	if t.tracker != nil {
		t.tracker.Touch(e.th)
	}
	return e.Entry, true
}

// Lock binds key to port in the locked state, starting (or restarting)
// the race window.
func (t *Table[K]) Lock(key K, port *netsim.Port, now time.Duration) {
	if t.junk != nil && t.junk(key) {
		return
	}
	t.maybeSweep(now)
	old, hadOld := t.entries[key]
	t.store(key, old, hadOld, Entry{
		Port:        port,
		State:       StateLocked,
		Expires:     now + t.lockTimeout,
		LockedUntil: now + t.lockTimeout,
	}, now)
}

// Learn binds key to port in the learned state (path confirmed). A
// confirmation on the entry's existing port preserves the remaining race
// window so late flood copies stay filtered.
func (t *Table[K]) Learn(key K, port *netsim.Port, now time.Duration) {
	if t.junk != nil && t.junk(key) {
		return
	}
	t.maybeSweep(now)
	old, hadOld := t.entries[key]
	lockedUntil := time.Duration(0)
	if hadOld && old.Port == port && !t.dead(old, now) {
		lockedUntil = old.LockedUntil
	}
	t.store(key, old, hadOld, Entry{
		Port:        port,
		State:       StateLearned,
		Expires:     now + t.learnedTimeout,
		LockedUntil: lockedUntil,
	}, now)
}

// Guard re-arms the race window on the current binding without moving the
// port, shortening the entry's remaining lifetime, or downgrading a
// learned entry. Used when a bridge originates a PathRequest on a host's
// behalf: copies of that flood returning over other ports must be
// filtered exactly as for a host-sent request, but the bridge must not
// forget its own attached host if the repair goes unanswered.
func (t *Table[K]) Guard(key K, now time.Duration) {
	e, ok := t.entries[key]
	if !ok {
		return
	}
	if t.dead(e, now) {
		t.evict(key, e)
		return
	}
	// The port does not move, so the residency counters are unchanged and
	// the entry can be rewritten in place.
	e.LockedUntil = now + t.lockTimeout
	if e.Expires < e.LockedUntil {
		e.Expires = e.LockedUntil
	}
	if t.tracker != nil {
		t.tracker.Touch(e.th)
	}
	t.entries[key] = e
}

// Refresh extends the current entry's lifetime without changing its state
// or port. Refreshing a missing or expired entry is a no-op.
//
//fabric:hotpath
func (t *Table[K]) Refresh(key K, now time.Duration) {
	e, ok := t.entries[key]
	if !ok {
		return
	}
	if t.dead(e, now) {
		t.evict(key, e)
		return
	}
	switch e.State {
	case StateLocked:
		e.Expires = now + t.lockTimeout
	case StateLearned:
		e.Expires = now + t.learnedTimeout
	}
	if t.tracker != nil {
		t.tracker.Touch(e.th)
	}
	// Same port, same generation: rewrite in place, counters unchanged.
	t.entries[key] = e
}

// Delete removes key's entry (stale-path teardown during repair).
func (t *Table[K]) Delete(key K) {
	if e, ok := t.entries[key]; ok {
		t.evict(key, e)
	}
}

// FlushPort invalidates every entry bound to port (link failure) in O(1)
// by advancing the port's generation; the map corpses are reclaimed
// lazily on access or by FlushExpired. It returns the number of entries
// invalidated.
func (t *Table[K]) FlushPort(port *netsim.Port) int {
	st := t.port(port)
	n := st.live
	st.gen++
	st.live = 0
	t.resident -= n
	return n
}

// Len returns the number of live-generation entries, including expired
// ones that have not been touched since their deadline.
func (t *Table[K]) Len() int { return t.resident }

// Entries returns the number of map entries including flushed-generation
// corpses awaiting reclamation: the table's actual memory footprint, the
// quantity the capacity bound and the leak regression tests are about.
func (t *Table[K]) Entries() int { return len(t.entries) }

// Evictions returns the cumulative count of live entries force-evicted by
// the capacity bound (corpse reclamation is not an eviction).
func (t *Table[K]) Evictions() uint64 { return t.evictions }

// PeakEntries returns the high-water mark of Entries() over the table's
// lifetime: the occupancy figure the eviction-pressure experiment plots.
func (t *Table[K]) PeakEntries() int { return t.peak }

// Reset drops every entry and every port generation: the table is as
// empty as at construction. This is total state loss (a bridge restart),
// not a link event — use FlushPort for those. Lifetime statistics
// (evictions, peak occupancy) survive.
func (t *Table[K]) Reset() {
	clear(t.entries)
	clear(t.ports)
	t.resident = 0
	t.nextSweep = 0
	t.lastPort = nil
	t.lastPS = nil
	if t.tracker != nil {
		t.tracker.Reset()
	}
}

// FlushExpired sweeps all expired and flushed entries eagerly, then
// reclaims port-state records with no surviving entries (after the sweep,
// a zero live count proves no entry references the record — everything
// left is live-generation). The dataplane never calls this directly; the
// amortized sweep does, bounding memory for long-lived tables, and
// experiments call it for exact counts.
func (t *Table[K]) FlushExpired(now time.Duration) {
	for key, e := range t.entries {
		if t.dead(e, now) {
			t.evict(key, e)
		}
	}
	for p, st := range t.ports {
		if st.live == 0 {
			if t.lastPort == p {
				t.lastPort = nil
				t.lastPS = nil
			}
			delete(t.ports, p)
		}
	}
}

// Snapshot returns a copy of the live entries; experiments reconstruct the
// path a flow has locked from it (Figure 1's bubbles) and the scenario
// checker walks it per key.
func (t *Table[K]) Snapshot(now time.Duration) map[K]Entry {
	out := make(map[K]Entry, len(t.entries))
	for key, e := range t.entries {
		if !t.dead(e, now) {
			out[key] = e.Entry
		}
	}
	return out
}
