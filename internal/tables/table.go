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

// slot is one record of the probe array: the public Entry plus its key,
// the generation of its port at bind time and its recency handle — 64
// bytes for a packed-MAC key, one cache line. A port's generation advances
// on FlushPort, which kills every entry bound to it in O(1) without
// touching the records; the portState pointer is cached in the record so
// the hot-path liveness check costs a pointer chase — into the table
// itself for its first inlinePorts ports — not a map lookup.
type slot[K comparable] struct {
	Entry
	key K
	ps  *portState
	gen uint32
	th  Handle // recency-tracker handle; 0 when untracked
	// seq is the record's incarnation: the table-wide insert count at the
	// time this entry was admitted, 0 while the cell is empty. A Ref
	// carries it, so a handle outliving its entry never matches another.
	seq uint64
}

// dead reports whether the record's entry is no longer valid at now: past
// its expiry, or bound to a port generation that has been flushed.
func (s *slot[K]) dead(now time.Duration) bool {
	return s.Expires <= now || s.gen != s.ps.gen
}

// Ref names the resident record a Find hit, so the caller can refresh it
// without a second probe. It survives the record's moves (a grow, a
// backward shift) and dies with its admission: after an eviction, Delete,
// sweep or Reset — and across the key's re-admission — RefreshAt on it is
// a no-op. The zero Ref is never valid.
type Ref[K comparable] struct {
	slot int32 // the cell the record sat in when found
	seq  uint64
	key  K // finds the record again if it has moved since
}

// portState is the per-port side table backing constant-time flushes.
type portState struct {
	gen  uint32 // current generation; entries with an older gen are dead
	held bool   // an inline record in use
	live int    // resident entries bound to this port at the current gen
}

// inlinePorts is how many port-state records a table stores inside
// itself. Every liveness check reads its record's generation, so a bridge
// with at most this many ports reads it from the table's own allocation;
// further ports get a record each.
const inlinePorts = 4

// Table is the All-Path family's one piece of forwarding state: key →
// (port, locked|learned, expiry). The variants differ only in the key —
// the packed MAC for ARP-Path and the learning switch, a directed
// {source, destination} pair for Flow-Path, a connection 4-tuple for
// TCP-Path — so they share this body and instantiate it per key type.
// There is no routing protocol and no tree behind it (§1).
//
// Storage is one open-addressed array of records (index.go, DESIGN.md
// §5): a hit is one probe — a hash, a mask and a compare, no runtime map
// call — landing on the record itself, and every rewrite of a resident
// key — refresh, guard, re-lock, re-learn, even onto another port —
// mutates that record in place, the way the NetFPGA lookup stage rewrites
// state and timestamp at the matched address. Only admitting a new key or
// removing one moves records, and nothing observable (or allocated)
// depends on which cell a record sits in.
//
// Expiry is lazy (checked on access) and link failures are handled by
// per-port generation counters, so no operation on the hot path scans the
// table.
//
// Production bounds (DESIGN.md §12): the table may be capacity-bounded
// with an LRU or clock eviction policy. The bound counts stored entries —
// live bindings and flushed-generation corpses alike — so it bounds actual
// memory, not just Len(). Corpses and expired entries are additionally
// reclaimed by an amortized sweep (one full pass per learned timeout,
// proxyCache-style) so even the unbounded configuration cannot leak under
// churn of never-reused keys plus FlushPort.
type Table[K comparable] struct {
	// What a lookup reads comes first, the port records right after.
	cells          []slot[K] // the probe array: nil or a power-of-two length
	hash           func(K) uint64
	junk           func(K) bool    // keys Lock/Learn must ignore; nil admits all
	tracker        *Tracker[int32] // recency order over cells; nil for the timeout baseline
	lockTimeout    time.Duration
	learnedTimeout time.Duration
	inline         [inlinePorts]portState // records of the first ports bound (newPortState)
	n              int                    // occupied cells
	capacity       int
	seq            uint64 // entries ever admitted; the newest incarnation
	ports          map[*netsim.Port]*portState
	resident       int // stored entries whose port generation is current

	evictions uint64        // capacity evictions of live entries (not corpse reclaim)
	peak      int           // high-water mark of Entries()
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
// a capacity bound (the zero Config is the unbounded timeout baseline), an
// optional junk predicate naming keys that must never pin a record, and
// the probe hash (Mix64 or Mix128 over the key's words; index.go says what
// it must be). A capacity bound sizes the array once, here, up to
// maxPresizeBytes, so a bounded table never grows (unless open race
// windows push it over its bound; makeRoom).
func New[K comparable](lockTimeout, learnedTimeout time.Duration, bound Config, junk func(K) bool, hash func(K) uint64) *Table[K] {
	t := new(Table[K])
	t.Init(lockTimeout, learnedTimeout, bound, junk, hash)
	return t
}

// Init builds in place the table New would return, for an owner that
// stores its table inside itself. Never copy a Table once Init has run:
// its records point into it.
func (t *Table[K]) Init(lockTimeout, learnedTimeout time.Duration, bound Config, junk func(K) bool, hash func(K) uint64) {
	if lockTimeout <= 0 || learnedTimeout <= 0 {
		panic("tables: timeouts must be positive")
	}
	if err := bound.Validate(); err != nil {
		panic(err.Error())
	}
	*t = Table[K]{
		lockTimeout:    lockTimeout,
		learnedTimeout: learnedTimeout,
		capacity:       bound.Capacity,
		junk:           junk,
		hash:           hash,
		ports:          make(map[*netsim.Port]*portState),
	}
	if bound.Capacity > 0 {
		t.cells = make([]slot[K], presize[K](bound.Capacity))
	}
	if bound.Tracked() {
		t.tracker = NewTracker[int32](bound.Policy)
	}
}

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
		st = t.newPortState()
		t.ports[p] = st
	}
	t.lastPort, t.lastPS = p, st
	return st
}

// newPortState returns a fresh record: a free inline one if any is left
// (FlushExpired frees them again), else a new one.
func (t *Table[K]) newPortState() *portState {
	for i := range t.inline {
		if st := &t.inline[i]; !st.held {
			*st = portState{held: true}
			return st
		}
	}
	return new(portState)
}

// evict removes the record in cell i, maintaining the residency counters,
// and closes the hole. Its incarnation leaves the table with it, which is
// what kills every Ref still naming it.
func (t *Table[K]) evict(i int32) {
	s := &t.cells[i]
	if s.gen == s.ps.gen {
		s.ps.live--
		t.resident--
	}
	if t.tracker != nil {
		t.tracker.Remove(s.th)
	}
	t.n--
	t.shiftBack(i)
}

// maybeSweep runs the amortized corpse sweep: at most one full
// FlushExpired per learned timeout, charged to the write that crossed the
// deadline (proxyCache's discipline). Callers must invoke it before
// looking the key up — the sweep may evict the very key about to be
// overwritten.
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
	for rejects := RejectBudget; t.n >= t.capacity; {
		h, ok := t.tracker.Victim()
		if !ok {
			return
		}
		i := t.tracker.Key(h)
		s := &t.cells[i]
		switch {
		case s.dead(now):
			t.evict(i)
		case !s.Guarded(now):
			t.evictions++
			t.evict(i)
		default:
			t.tracker.Reject(h)
			if rejects--; rejects <= 0 {
				return
			}
		}
	}
}

// store writes e under key, given the probe (i, resident) the caller
// already paid for. A resident key — live, expired or corpse — is
// rewritten in its cell, keeping its recency handle; a new key is admitted
// into the empty cell the probe ended on — probed again if makeRoom's
// evictions or a grow have moved the run since. Either way the residency
// counters, the recency tracker and the peak follow.
func (t *Table[K]) store(key K, i int32, resident bool, e Entry, now time.Duration) {
	if resident {
		s := &t.cells[i]
		if s.gen == s.ps.gen {
			s.ps.live--
			t.resident--
		}
		if t.tracker != nil {
			t.tracker.Touch(s.th)
		}
	} else {
		if t.capacity > 0 && t.n >= t.capacity || 2*(t.n+1) > len(t.cells) {
			t.makeRoom(now)
			if 2*(t.n+1) > len(t.cells) {
				t.grow()
			}
			i, _ = t.probe(t.hash(key), key)
		}
		t.seq++
		t.n++
		s := &t.cells[i]
		s.key, s.seq = key, t.seq
		if t.tracker != nil {
			s.th = t.tracker.Insert(i)
		}
		if t.n > t.peak {
			t.peak = t.n
		}
	}
	st := t.port(e.Port)
	st.live++
	t.resident++
	s := &t.cells[i]
	s.Entry, s.gen, s.ps = e, st.gen, st
}

// Find returns the live entry for key and a Ref to its record, evicting it
// lazily if expired or flushed. It is the forwarding path's one probe per
// address: the caller decides on the Entry and, when the frame passes,
// extends the lifetime through RefreshAt without looking the key up again.
//
//fabric:hotpath
func (t *Table[K]) Find(key K, now time.Duration) (Ref[K], Entry, bool) {
	i, ok := t.probe(t.hash(key), key)
	if !ok {
		return Ref[K]{}, Entry{}, false
	}
	s := &t.cells[i]
	if s.dead(now) {
		t.evict(i)
		return Ref[K]{}, Entry{}, false
	}
	if t.tracker != nil {
		t.tracker.Touch(s.th)
	}
	return Ref[K]{slot: i, seq: s.seq, key: key}, s.Entry, true
}

// Get returns the live entry for key, evicting it lazily if expired or
// flushed.
//
//fabric:hotpath
func (t *Table[K]) Get(key K, now time.Duration) (Entry, bool) {
	_, e, ok := t.Find(key, now)
	return e, ok
}

// Lock binds key to port in the locked state, starting (or restarting)
// the race window.
func (t *Table[K]) Lock(key K, port *netsim.Port, now time.Duration) {
	if t.junk != nil && t.junk(key) {
		return
	}
	t.maybeSweep(now)
	i, resident := t.probe(t.hash(key), key)
	t.store(key, i, resident, Entry{
		Port:        port,
		State:       StateLocked,
		Expires:     now + t.lockTimeout,
		LockedUntil: now + t.lockTimeout,
	}, now)
}

// Verdict is how one flood copy fared in the discovery race.
type Verdict uint8

// Race verdicts.
const (
	RacePass Verdict = iota // arrived on the bound port: passes, nothing decided
	RaceWon                 // first copy: key is now locked to its ingress port
	RaceLost                // slower or looping copy: discard, binding untouched
)

// Race is the first-port rule (§2.1.1, §2.1.3), the one decision every
// All-Path variant takes on a flooded frame whatever its entries are keyed
// by: the first copy to arrive locks key to its ingress port and later
// copies on other ports are discarded. establishing says whether the frame
// may open a new race (ARP Request, PathRequest, TCP SYN; §2.1.3: "other
// multicast and broadcast frames do not establish new paths"). One Get and
// at most one Lock: the recency tracker sees exactly those.
//
//fabric:hotpath
func (t *Table[K]) Race(key K, in *netsim.Port, now time.Duration, establishing bool) Verdict {
	if t.junk != nil && t.junk(key) {
		// A key the table refuses to bind can never lose to an earlier
		// copy, so "absent ⇒ first copy" would let it win on every port,
		// forever: a flood sourced from a multicast or zero MAC would
		// circle any cycle until the horizon. No binding, no race: it loses.
		return RaceLost
	}
	e, ok := t.Get(key, now)
	switch {
	case !ok:
		// First copy from this key. The first-port rule applies to every
		// broadcast; only later races need an establishing frame.
		t.Lock(key, in, now)
		return RaceWon
	case e.Port == in:
		// Frames from the bound port pass. A fresh establishing frame
		// restarts the race window on this port.
		if establishing {
			t.Lock(key, in, now)
		}
		return RacePass
	case e.Guarded(now):
		// A slower copy of the flood (or a loop copy) inside the race
		// window: discard. This holds even after the reply confirmed the
		// entry — the window outlives confirmation.
		return RaceLost
	case establishing:
		// Window over, new request from another direction: a new race. The
		// first copy wins the lock (possibly moving the port — that is how
		// paths change between exchanges); its window filters duplicates.
		t.Lock(key, in, now)
		return RaceWon
	default:
		// A non-establishing broadcast must still respect the first-port
		// rule.
		return RaceLost
	}
}

// Learn binds key to port in the learned state (path confirmed). A
// confirmation on the entry's existing port preserves the remaining race
// window so late flood copies stay filtered — and, when that entry is
// live, touches nothing but its record: no counter moves and no record
// moves, which is the steady state of a learning switch's source learn.
//
//fabric:hotpath
func (t *Table[K]) Learn(key K, port *netsim.Port, now time.Duration) {
	if t.junk != nil && t.junk(key) {
		return
	}
	t.maybeSweep(now)
	i, resident := t.probe(t.hash(key), key)
	if resident {
		if s := &t.cells[i]; s.Port == port && !s.dead(now) {
			s.State, s.Expires = StateLearned, now+t.learnedTimeout
			if t.tracker != nil {
				t.tracker.Touch(s.th)
			}
			return
		}
	}
	t.store(key, i, resident, Entry{Port: port, State: StateLearned, Expires: now + t.learnedTimeout}, now)
}

// refresh is the shared tail of Refresh and RefreshAt on a resident record.
//
//fabric:hotpath
func (t *Table[K]) refresh(i int32, now time.Duration) {
	s := &t.cells[i]
	if s.dead(now) {
		t.evict(i)
		return
	}
	switch s.State {
	case StateLocked:
		s.Expires = now + t.lockTimeout
	case StateLearned:
		s.Expires = now + t.learnedTimeout
	}
	if t.tracker != nil {
		t.tracker.Touch(s.th)
	}
}

// Refresh extends the current entry's lifetime without changing its state
// or port. Refreshing a missing or expired entry is a no-op.
//
//fabric:hotpath
func (t *Table[K]) Refresh(key K, now time.Duration) {
	if i, ok := t.probe(t.hash(key), key); ok {
		t.refresh(i, now)
	}
}

// RefreshAt is Refresh on the record a Find returned, without the probe
// while the record stays in its cell. A record that has moved since is
// found again by key and matched by incarnation; a Ref whose admission has
// since been removed is ignored.
//
//fabric:hotpath
func (t *Table[K]) RefreshAt(r Ref[K], now time.Duration) {
	if r.seq != 0 && int(r.slot) < len(t.cells) && t.cells[r.slot].seq == r.seq {
		t.refresh(r.slot, now)
	} else if i, ok := t.probe(t.hash(r.key), r.key); ok && t.cells[i].seq == r.seq {
		t.refresh(i, now) // a resident record's seq is never 0: the zero Ref matches nothing
	}
}

// Guard re-arms the race window on the current binding without moving the
// port, shortening the entry's remaining lifetime, or downgrading a
// learned entry. Used when a bridge originates a PathRequest on a host's
// behalf: copies of that flood returning over other ports must be
// filtered exactly as for a host-sent request, but the bridge must not
// forget its own attached host if the repair goes unanswered.
func (t *Table[K]) Guard(key K, now time.Duration) {
	r, _, ok := t.Find(key, now)
	if !ok {
		return
	}
	s := &t.cells[r.slot]
	s.LockedUntil = now + t.lockTimeout
	if s.Expires < s.LockedUntil {
		s.Expires = s.LockedUntil
	}
}

// Delete removes key's entry (stale-path teardown during repair).
func (t *Table[K]) Delete(key K) {
	if i, ok := t.probe(t.hash(key), key); ok {
		t.evict(i)
	}
}

// FlushPort invalidates every entry bound to port (link failure) in O(1)
// by advancing the port's generation; the corpses are reclaimed lazily on
// access or by FlushExpired. It returns the number of entries
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

// Entries returns the number of stored entries including
// flushed-generation corpses awaiting reclamation: the table's actual
// memory footprint, the quantity the capacity bound and the leak
// regression tests are about.
func (t *Table[K]) Entries() int { return t.n }

// Evictions returns the cumulative count of live entries force-evicted by
// the capacity bound (corpse reclamation is not an eviction).
func (t *Table[K]) Evictions() uint64 { return t.evictions }

// PeakEntries returns the high-water mark of Entries() over the table's
// lifetime: the occupancy figure the eviction-pressure experiment plots.
func (t *Table[K]) PeakEntries() int { return t.peak }

// Reset drops every entry and every port generation: the table is as
// empty as at construction. This is total state loss (a bridge restart),
// not a link event — use FlushPort for those. Lifetime statistics
// (evictions, peak occupancy) survive, and so does the incarnation
// counter: a Ref taken before the Reset matches nothing after it.
func (t *Table[K]) Reset() {
	clear(t.cells)
	t.n = 0
	clear(t.ports)
	t.inline = [inlinePorts]portState{}
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
//
// An eviction shifts a later record of the run into cell i, so the walk
// looks at i again before moving on. Shifts only move records backward
// into the hole, so every record not yet examined stays at or after i; one
// that wraps from the array's start was examined at the start.
func (t *Table[K]) FlushExpired(now time.Duration) {
	for i := 0; i < len(t.cells); {
		if s := &t.cells[i]; s.seq != 0 && s.dead(now) {
			t.evict(int32(i))
			continue
		}
		i++
	}
	for p, st := range t.ports {
		if st.live == 0 {
			if t.lastPort == p {
				t.lastPort = nil
				t.lastPS = nil
			}
			st.held = false
			delete(t.ports, p)
		}
	}
}

// Snapshot returns a copy of the live entries; experiments reconstruct the
// path a flow has locked from it (Figure 1's bubbles) and the scenario
// checker walks it per key.
func (t *Table[K]) Snapshot(now time.Duration) map[K]Entry {
	out := make(map[K]Entry, t.n)
	for i := range t.cells {
		if s := &t.cells[i]; s.seq != 0 && !s.dead(now) {
			out[s.key] = s.Entry
		}
	}
	return out
}
