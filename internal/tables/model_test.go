package tables

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/netsim"
)

// model is the reference the table is checked against: the table's
// contract written the plain way — one Go map from key to a value that is
// copied out, edited and assigned back on every operation, with the
// recency Tracker keyed by the key itself. Nothing here shares code with
// Table's storage; only the Tracker (which has its own suite) is reused.
type model[K comparable] struct {
	lockTimeout, learnedTimeout time.Duration
	capacity                    int
	tracker                     *Tracker[K]
	entries                     map[K]modelEntry
	gens                        map[*netsim.Port]uint32 // current generation per port
	incarnations                uint64
	evictions                   uint64
	peak                        int
	nextSweep                   time.Duration
}

type modelEntry struct {
	Entry
	gen uint32
	th  Handle
	inc uint64 // which admission of the key this is: what a Ref is bound to
}

// modelRef is the model's Ref: the key and the admission it was found at.
type modelRef[K comparable] struct {
	key K
	inc uint64
}

func newModel[K comparable](lock, learned time.Duration, bound Config) *model[K] {
	m := &model[K]{
		lockTimeout: lock, learnedTimeout: learned, capacity: bound.Capacity,
		entries: map[K]modelEntry{}, gens: map[*netsim.Port]uint32{},
	}
	if bound.Tracked() {
		m.tracker = NewTracker[K](bound.Policy)
	}
	return m
}

func (m *model[K]) dead(e modelEntry, now time.Duration) bool {
	return e.Expires <= now || e.gen != m.gens[e.Port]
}

func (m *model[K]) remove(k K) {
	if m.tracker != nil {
		m.tracker.Remove(m.entries[k].th)
	}
	delete(m.entries, k)
}

func (m *model[K]) touch(e modelEntry) {
	if m.tracker != nil {
		m.tracker.Touch(e.th)
	}
}

func (m *model[K]) sweep(now time.Duration) {
	for k, e := range m.entries {
		if m.dead(e, now) {
			m.remove(k)
		}
	}
}

func (m *model[K]) write(k K, e Entry, now time.Duration) {
	if now >= m.nextSweep {
		m.sweep(now)
		m.nextSweep = now + m.learnedTimeout
	}
	old, had := m.entries[k]
	if had && e.State == StateLearned && old.Port == e.Port && !m.dead(old, now) {
		e.LockedUntil = old.LockedUntil // a same-port confirmation keeps the window
	}
	ne := modelEntry{Entry: e, gen: m.gens[e.Port], th: old.th, inc: old.inc}
	if had {
		m.touch(old)
	} else {
		for rejects := RejectBudget; m.tracker != nil && m.capacity > 0 && len(m.entries) >= m.capacity; {
			h, ok := m.tracker.Victim()
			if !ok {
				break
			}
			vk := m.tracker.Key(h)
			if v := m.entries[vk]; m.dead(v, now) {
				m.remove(vk)
			} else if !v.Guarded(now) {
				m.evictions++
				m.remove(vk)
			} else {
				m.tracker.Reject(h)
				if rejects--; rejects <= 0 {
					break
				}
			}
		}
		m.incarnations++
		ne.inc = m.incarnations
		if m.tracker != nil {
			ne.th = m.tracker.Insert(k)
		}
	}
	m.entries[k] = ne
	m.peak = max(m.peak, len(m.entries))
}

func (m *model[K]) lock(k K, p *netsim.Port, now time.Duration) {
	m.write(k, Entry{Port: p, State: StateLocked, Expires: now + m.lockTimeout, LockedUntil: now + m.lockTimeout}, now)
}

func (m *model[K]) learn(k K, p *netsim.Port, now time.Duration) {
	m.write(k, Entry{Port: p, State: StateLearned, Expires: now + m.learnedTimeout}, now)
}

// race is the first-port rule spelled arm by arm, the way the bridges'
// broadcast handlers carried it before Table.Race.
func (m *model[K]) race(k K, in *netsim.Port, now time.Duration, establishing bool) Verdict {
	_, e, ok := m.find(k, now)
	if !ok {
		m.lock(k, in, now)
		return RaceWon
	}
	if e.Port == in {
		if establishing {
			m.lock(k, in, now)
		}
		return RacePass
	}
	if e.Guarded(now) {
		return RaceLost
	}
	if establishing {
		m.lock(k, in, now)
		return RaceWon
	}
	return RaceLost
}

// live returns k's entry if it is valid at now, removing it otherwise.
func (m *model[K]) live(k K, now time.Duration) (modelEntry, bool) {
	e, ok := m.entries[k]
	if ok && m.dead(e, now) {
		m.remove(k)
		ok = false
	}
	return e, ok
}

func (m *model[K]) find(k K, now time.Duration) (modelRef[K], Entry, bool) {
	e, ok := m.live(k, now)
	if !ok {
		return modelRef[K]{}, Entry{}, false
	}
	m.touch(e)
	return modelRef[K]{k, e.inc}, e.Entry, true
}

func (m *model[K]) refresh(k K, now time.Duration) {
	e, ok := m.live(k, now)
	if !ok {
		return
	}
	e.Expires = now + m.learnedTimeout
	if e.State == StateLocked {
		e.Expires = now + m.lockTimeout
	}
	m.touch(e)
	m.entries[k] = e
}

func (m *model[K]) refreshAt(r modelRef[K], now time.Duration) {
	if e, ok := m.entries[r.key]; ok && r.inc != 0 && e.inc == r.inc {
		m.refresh(r.key, now)
	}
}

func (m *model[K]) guard(k K, now time.Duration) {
	e, ok := m.live(k, now)
	if !ok {
		return
	}
	e.LockedUntil = now + m.lockTimeout
	e.Expires = max(e.Expires, e.LockedUntil)
	m.touch(e)
	m.entries[k] = e
}

func (m *model[K]) delete(k K) {
	if _, ok := m.entries[k]; ok {
		m.remove(k)
	}
}

func (m *model[K]) flushPort(p *netsim.Port) int {
	n := 0
	for _, e := range m.entries {
		if e.Port == p && e.gen == m.gens[p] {
			n++
		}
	}
	m.gens[p]++
	return n
}

func (m *model[K]) resident() int {
	n := 0
	for _, e := range m.entries {
		if e.gen == m.gens[e.Port] {
			n++
		}
	}
	return n
}

func (m *model[K]) snapshot(now time.Duration) map[K]Entry {
	out := map[K]Entry{}
	for k, e := range m.entries {
		if !m.dead(e, now) {
			out[k] = e.Entry
		}
	}
	return out
}

func (m *model[K]) reset() {
	clear(m.entries)
	clear(m.gens)
	m.nextSweep = 0
	if m.tracker != nil {
		m.tracker.Reset()
	}
}

// recency is a tracker's whole victim-selection state, spelled in keys:
// the list cold end first, each node's clock bit, and where the hand is.
type recency[K comparable] struct {
	keys []K
	refs []bool
	hand int // position of the clock hand in keys, -1 when parked
}

func recencyOf[T, K comparable](tr *Tracker[T], key func(T) K) recency[K] {
	r := recency[K]{hand: -1}
	if tr == nil {
		return r
	}
	for i := tr.nodes[0].next; i != 0; i = tr.nodes[i].next {
		if i == tr.hand {
			r.hand = len(r.keys)
		}
		r.keys = append(r.keys, key(tr.nodes[i].key))
		r.refs = append(r.refs, tr.nodes[i].ref)
	}
	return r
}

// TestDifferentialAgainstModel drives the table and the plain-map
// model through the same random operation sequence — every public write
// and read, handle-based refreshes through Refs held across arbitrary
// other operations, flushes, sweeps and resets, with time jumps that
// cross lock windows, lifetimes and sweep deadlines — and requires the
// same answer from every call and the same counters and victim order
// after every step.
func TestDifferentialAgainstModel(t *testing.T) {
	matrix(t,
		func(t *testing.T, p Policy, key func(int) uint64) { differential(t, p, key, 12, 0) },
		func(t *testing.T, p Policy, key func(int) key128) { differential(t, p, key, 12, 0) })
}

// TestDifferentialDeleteHeavyPairs is the same run on Flow-Path-shaped keys
// (two packed MACs) with a quarter of the operations turned into Deletes:
// repair teardown at a rate that keeps the table shifting runs back over
// holes while evictions, sweeps and lazy expiry remove keys around them.
func TestDifferentialDeleteHeavyPairs(t *testing.T) {
	for _, policy := range []Policy{PolicyLRU, PolicyClock} {
		t.Run(policy.String(), func(t *testing.T) { differential(t, policy, pairOf, 6, 25) })
	}
}

// differential is the run, once bounded at capacity and once unbounded;
// deletes is the percentage of steps replaced by a Delete on top of the
// schedule's own 4 % (the bound shrinks with it, or nothing would evict).
func differential[K comparable](t *testing.T, policy Policy, key func(int) K, capacity, deletes int) {
	const (
		lock    = 3 * time.Millisecond
		learned = 40 * time.Millisecond
		steps   = 30_000
	)
	ports := testPorts(3)
	for _, bound := range []Config{{Capacity: capacity, Policy: policy}, {Policy: policy}} {
		tb := New[K](lock, learned, bound, nil, hashOf[K]())
		m := newModel[K](lock, learned, bound)
		rng := rand.New(rand.NewSource(int64(policy)*1000 + int64(bound.Capacity)))

		var held []Ref[K]
		var heldM []modelRef[K]
		now := time.Duration(0)
		for step := 0; step < steps; step++ {
			switch rng.Intn(10) {
			case 0:
				now += time.Duration(rng.Intn(int(2 * learned)))
			default:
				now += time.Duration(rng.Intn(int(lock / 2)))
			}
			k, p := key(rng.Intn(40)), ports[rng.Intn(len(ports))]
			op := rng.Intn(100)
			if rng.Intn(100) < deletes {
				op = 90 // a Delete
			}
			switch {
			case op < 20:
				r, e, ok := tb.Find(k, now)
				mr, me, mok := m.find(k, now)
				if e != me || ok != mok {
					t.Fatalf("step %d: Find = (%+v, %v), model (%+v, %v)", step, e, ok, me, mok)
				}
				if ok {
					held, heldM = append(held, r), append(heldM, mr)
				}
			case op < 35 && len(held) > 0:
				i := rng.Intn(len(held))
				tb.RefreshAt(held[i], now)
				m.refreshAt(heldM[i], now)
				if rng.Intn(2) == 0 {
					held, heldM = append(held[:i], held[i+1:]...), append(heldM[:i], heldM[i+1:]...)
				}
			case op < 45:
				e, ok := tb.Get(k, now)
				_, me, mok := m.find(k, now)
				if e != me || ok != mok {
					t.Fatalf("step %d: Get = (%+v, %v), model (%+v, %v)", step, e, ok, me, mok)
				}
			case op < 55:
				tb.Refresh(k, now)
				m.refresh(k, now)
			case op < 63:
				tb.Lock(k, p, now)
				m.lock(k, p, now)
			case op < 70:
				establishing := rng.Intn(2) == 0
				if got, want := tb.Race(k, p, now, establishing), m.race(k, p, now, establishing); got != want {
					t.Fatalf("step %d: Race = %d, model %d", step, got, want)
				}
			case op < 85:
				tb.Learn(k, p, now)
				m.learn(k, p, now)
			case op < 90:
				tb.Guard(k, now)
				m.guard(k, now)
			case op < 94:
				tb.Delete(k)
				m.delete(k)
			case op < 97:
				if got, want := tb.FlushPort(p), m.flushPort(p); got != want {
					t.Fatalf("step %d: FlushPort invalidated %d, model %d", step, got, want)
				}
			case op < 99:
				tb.FlushExpired(now)
				m.sweep(now)
			default:
				tb.Reset()
				m.reset()
			}

			if tb.Len() != m.resident() || tb.Entries() != len(m.entries) ||
				tb.PeakEntries() != m.peak || tb.Evictions() != m.evictions {
				t.Fatalf("step %d: Len/Entries/Peak/Evictions = %d/%d/%d/%d, model %d/%d/%d/%d", step,
					tb.Len(), tb.Entries(), tb.PeakEntries(), tb.Evictions(),
					m.resident(), len(m.entries), m.peak, m.evictions)
			}
			got := recencyOf(tb.tracker, func(i int32) K { return tb.cells[i].key })
			want := recencyOf(m.tracker, func(k K) K { return k })
			if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.refs, want.refs) || got.hand != want.hand {
				t.Fatalf("step %d: victim order diverged:\n table %+v\n model %+v", step, got, want)
			}
			if step%32 == 0 {
				if got, want := tb.Snapshot(now), m.snapshot(now); !maps.Equal(got, want) {
					t.Fatalf("step %d: Snapshot diverged:\n table %+v\n model %+v", step, got, want)
				}
				checkAccounting(t, tb)
			}
		}
		if bound.Capacity > 0 && tb.Evictions() == 0 {
			t.Fatal("the bounded run never evicted; the property was not exercised")
		}
	}
}
