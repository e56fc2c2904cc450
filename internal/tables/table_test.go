package tables

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// The table invariants, asserted once on the shared body for every key
// shape the fabric instantiates — the packed MAC of core.LockTable and
// learning.Table, and a 128-bit struct like flowpath.PairKey — under both
// eviction policies.

type key128 struct{ Hi, Lo uint64 }

func macKey(i int) uint64  { return layers.HostMAC(i + 1).Uint64() }
func wideKey(i int) key128 { return key128{Hi: uint64(i + 1), Lo: uint64(i) << 32} }

// pairOf is a Flow-Path-shaped key: two packed host MACs.
func pairOf(i int) key128 { return key128{Hi: macKey(i), Lo: macKey(i + 1<<20)} }

// hashOf returns the probe hash the fabric pairs with each key shape:
// Mix64 for packed MACs, Mix128 over the halves of a pair.
func hashOf[K comparable]() func(K) uint64 {
	var h any = Mix64
	if _, wide := any(*new(K)).(key128); wide {
		h = func(k key128) uint64 { return Mix128(k.Hi, k.Lo) }
	}
	return h.(func(K) uint64)
}

// matrix runs one generic property over {uint64, 128-bit} × {lru, clock}.
func matrix(t *testing.T,
	narrow func(*testing.T, Policy, func(int) uint64),
	wide func(*testing.T, Policy, func(int) key128),
) {
	for _, policy := range []Policy{PolicyLRU, PolicyClock} {
		t.Run("uint64/"+policy.String(), func(t *testing.T) { narrow(t, policy, macKey) })
		t.Run("pair/"+policy.String(), func(t *testing.T) { wide(t, policy, wideKey) })
	}
}

// testPorts returns n distinct live ports (one hub node cabled to n
// peers; the hub's end of each link is the port).
func testPorts(n int) []*netsim.Port {
	net := netsim.NewNetwork(1)
	hub := stubNode("hub")
	net.AddNode(hub)
	ports := make([]*netsim.Port, n)
	for i := range ports {
		peer := stubNode(fmt.Sprintf("p%d", i+1))
		net.AddNode(peer)
		ports[i] = net.Connect(hub, peer, netsim.DefaultLinkConfig()).A()
	}
	return ports
}

// stubNode is the least netsim.Node: testPorts needs only its ports.
type stubNode string

func (s stubNode) Name() string                          { return string(s) }
func (stubNode) AttachPort(*netsim.Port)                 {}
func (stubNode) HandleFrame(*netsim.Port, *netsim.Frame) {}
func (stubNode) PortStatusChanged(*netsim.Port, bool)    {}

// checkAccounting asserts the bookkeeping every operation must preserve:
// resident ≤ stored records, one tracker node per record, and the probe
// array's own structure (checkCells).
func checkAccounting[K comparable](t *testing.T, tb *Table[K]) {
	t.Helper()
	if tb.Len() > tb.Entries() {
		t.Fatalf("resident %d exceeds stored records %d", tb.Len(), tb.Entries())
	}
	if tb.tracker != nil && tb.tracker.Len() != tb.Entries() {
		t.Fatalf("tracker holds %d keys, table %d", tb.tracker.Len(), tb.Entries())
	}
	checkCells(t, tb)
}

// TestGuardedNeverEvicted is the race-window property: under randomized
// churn far above capacity, neither policy may ever evict an entry whose
// §2.1.1 race window is still open — moving a binding mid-race would
// reopen the loop and duplication hazards the lock exists to prevent. The
// table admits over capacity instead.
func TestGuardedNeverEvicted(t *testing.T) {
	matrix(t, guardedNeverEvicted[uint64], guardedNeverEvicted[key128])
}

func guardedNeverEvicted[K comparable](t *testing.T, policy Policy, key func(int) K) {
	const (
		lockTimeout = 100 * time.Millisecond
		capacity    = 32
		ops         = 20_000
	)
	ports := testPorts(2)
	tb := New[K](lockTimeout, time.Hour, Config{Capacity: capacity, Policy: policy}, nil, hashOf[K]())
	rng := rand.New(rand.NewSource(int64(policy) + 42))

	// Shadow of every key's latest window-opening operation.
	lockedAt := map[K]time.Duration{}
	now := time.Duration(0)
	for i := 0; i < ops; i++ {
		now += time.Duration(rng.Intn(2000)) * time.Microsecond
		k := key(rng.Intn(4096))
		p := ports[rng.Intn(2)]
		switch rng.Intn(4) {
		case 0, 1: // lock opens a race window
			tb.Lock(k, p, now)
			lockedAt[k] = now
		case 2:
			tb.Learn(k, p, now)
			// A learn on another port closes the window (the old port's
			// race is void), so the shadow must forget the deadline — it
			// only ever asserts on keys whose window is provably still
			// open, i.e. locked and untouched since.
			delete(lockedAt, k)
		case 3:
			tb.Get(k, now)
		}
		if i%64 == 0 {
			for k, at := range lockedAt {
				if now-at >= lockTimeout {
					delete(lockedAt, k) // window closed
					continue
				}
				if _, ok := tb.probe(tb.hash(k), k); !ok {
					t.Fatalf("op %d: key %v evicted inside its race window (locked at %v, now %v)", i, k, at, now)
				}
			}
			checkAccounting(t, tb)
		}
	}
	if tb.Evictions() == 0 {
		t.Fatalf("churn produced no evictions; the property was not exercised (resident %d, cap %d)",
			tb.Len(), capacity)
	}
}

// TestCorpseBoundedMap is the table-leak regression: a conversation mix of
// never-reused keys plus FlushPort churn keeps Len() honest while every
// generation-killed and expired entry stays in the map as a corpse. The
// amortized sweep must keep the map itself (Entries(), not just Len())
// and the tracker arena bounded by the working set.
func TestCorpseBoundedMap(t *testing.T) {
	matrix(t, corpseBoundedMap[uint64], corpseBoundedMap[key128])
}

func corpseBoundedMap[K comparable](t *testing.T, policy Policy, key func(int) K) {
	ports := testPorts(2)
	// Short confirmed lifetime so expiry churns quickly; the sweep period
	// equals it. Tracked but unbounded: only the sweep reclaims.
	const lifetime = 10 * time.Millisecond
	tb := New[K](time.Millisecond, lifetime, Config{Policy: policy}, nil, hashOf[K]())

	now := time.Duration(0)
	maxEntries := 0
	for i := 0; i < 50_000; i++ {
		tb.Learn(key(i), ports[i%2], now)
		if i%100 == 99 {
			// Link flap: generation-kill everything on one port. The
			// corpses this creates are exactly what leaked.
			tb.FlushPort(ports[0])
		}
		now += 100 * time.Microsecond
		maxEntries = max(maxEntries, tb.Entries())
	}
	// The working set is at most lifetime/spacing = 100 live entries plus
	// one sweep period of corpses — far below the 50k keys inserted. Give
	// generous slack; the leaking behaviour was ~50k.
	if maxEntries > 1000 {
		t.Fatalf("map grew to %d entries under churn (want bounded ≈ working set); corpses are leaking", maxEntries)
	}
	checkAccounting(t, tb)
}

// TestPortStateReclaim is the side-table leak regression: the per-port
// generation records and the one-slot port cache must not outlive the
// entries referencing them, both for ports that vanish from the workload
// and across repeated link flaps.
func TestPortStateReclaim(t *testing.T) {
	matrix(t, portStateReclaim[uint64], portStateReclaim[key128])
}

func portStateReclaim[K comparable](t *testing.T, policy Policy, key func(int) K) {
	const n = 64
	ports := testPorts(n)
	tb := New[K](time.Millisecond, 10*time.Millisecond, Config{Policy: policy}, nil, hashOf[K]())

	// One entry per port, then let everything expire: a full sweep must
	// drop every port record along with the corpses.
	for i, p := range ports {
		tb.Learn(key(i), p, 0)
	}
	if got := len(tb.ports); got != n {
		t.Fatalf("port records = %d, want %d", got, n)
	}
	tb.FlushExpired(time.Second)
	if got := len(tb.ports); got != 0 {
		t.Fatalf("port records = %d after all entries expired, want 0 (port records leak)", got)
	}

	// Repeated flaps on one port must not accumulate records either.
	for flap := 0; flap < 100; flap++ {
		tb.Learn(key(200+flap), ports[0], time.Second)
		if got := tb.FlushPort(ports[0]); got != 1 {
			t.Fatalf("flap %d: FlushPort invalidated %d entries, want 1", flap, got)
		}
	}
	tb.FlushExpired(2 * time.Second)
	if got := len(tb.ports); got != 0 {
		t.Fatalf("port records = %d after 100 flaps and a sweep, want 0", got)
	}
	if tb.lastPS != nil || tb.lastPort != nil {
		t.Fatal("one-slot port cache still points at a reclaimed record")
	}
	tb.Learn(key(999), ports[0], 3*time.Second)
	if e, ok := tb.Get(key(999), 3*time.Second); !ok || e.Port != ports[0] {
		t.Fatal("learn after port-state reclaim failed")
	}
	checkAccounting(t, tb)
}

// TestPortStateSpill covers a table bound to more ports than it stores
// records for inline: FlushPort kills exactly the flushed port's entries
// whichever side of the spill its record lives on, and once FlushExpired
// has reclaimed the records, the next ports bound get the inline ones
// again — TestPortStateReclaim's bound on records holds in bytes too.
func TestPortStateSpill(t *testing.T) {
	matrix(t, portStateSpill[uint64], portStateSpill[key128])
}

func portStateSpill[K comparable](t *testing.T, policy Policy, key func(int) K) {
	const perPort = 3
	ports := testPorts(inlinePorts + 3)
	tb := New[K](time.Millisecond, 10*time.Millisecond, Config{Policy: policy}, nil, hashOf[K]())
	inline := func(p *netsim.Port) bool {
		for i := range tb.inline {
			if tb.ports[p] == &tb.inline[i] {
				return true
			}
		}
		return false
	}
	for i, p := range ports {
		for j := 0; j < perPort; j++ {
			tb.Learn(key(i*perPort+j), p, 0)
		}
		if want := i < inlinePorts; inline(p) != want {
			t.Fatalf("port %d: inline record = %v, want %v", i, !want, want)
		}
	}
	flushed := map[int]bool{1: true, inlinePorts + 1: true} // one each side of the spill
	for i := range flushed {
		if got := tb.FlushPort(ports[i]); got != perPort {
			t.Fatalf("FlushPort(port %d) invalidated %d entries, want %d", i, got, perPort)
		}
	}
	for i := range ports {
		for j := 0; j < perPort; j++ {
			if _, ok := tb.Get(key(i*perPort+j), time.Microsecond); ok == flushed[i] {
				t.Fatalf("port %d entry %d: live = %v after flushing ports %v", i, j, ok, flushed)
			}
		}
	}
	checkAccounting(t, tb)

	tb.FlushExpired(time.Second)
	if len(tb.ports) != 0 {
		t.Fatalf("port records = %d after every entry expired, want 0", len(tb.ports))
	}
	for i := range ports {
		p := ports[len(ports)-1-i] // another order: spilled ports now come first
		tb.Learn(key(1000+i), p, time.Second)
		if want := i < inlinePorts; inline(p) != want {
			t.Fatalf("rebinding %d: inline record = %v, want %v (inline records not reused)", i, !want, want)
		}
	}
	checkAccounting(t, tb)
}

// TestCapacityBound: the bound holds under distinct-key churn once race
// windows close, the coldest entry goes first, and the eviction/peak
// counters report what happened.
func TestCapacityBound(t *testing.T) {
	matrix(t, capacityBound[uint64], capacityBound[key128])
}

func capacityBound[K comparable](t *testing.T, policy Policy, key func(int) K) {
	ports := testPorts(1)
	const capacity, inserts = 16, 200
	tb := New[K](time.Millisecond, time.Hour, Config{Capacity: capacity, Policy: policy}, nil, hashOf[K]())

	now := 10 * time.Millisecond
	for i := 0; i < inserts; i++ {
		tb.Learn(key(i), ports[0], now)
		now += 2 * time.Millisecond // windows close between inserts
		if got := tb.Entries(); got > capacity {
			t.Fatalf("insert %d: Entries = %d, want ≤ %d", i, got, capacity)
		}
	}
	if got := tb.Evictions(); got != inserts-capacity {
		t.Fatalf("Evictions = %d, want %d", got, inserts-capacity)
	}
	if tb.PeakEntries() != capacity {
		t.Fatalf("peak %d, want capacity %d (no guarded entries to admit over it)", tb.PeakEntries(), capacity)
	}
	// Untouched entries are evicted in insertion order under both
	// policies: the survivors are exactly the most recent inserts.
	for i := 0; i < inserts; i++ {
		if _, ok := tb.Get(key(i), now); ok != (i >= inserts-capacity) {
			t.Fatalf("entry %d resident=%v after %d evictions", i, ok, inserts-capacity)
		}
	}
	checkAccounting(t, tb)
}

// TestJunkPredicate: keys the constructor's predicate names never pin a
// slot through Lock or Learn; without a predicate every key is legal.
func TestJunkPredicate(t *testing.T) {
	matrix(t, junkPredicate[uint64], junkPredicate[key128])

	for _, k := range []uint64{0, layers.BroadcastMAC.Uint64(), layers.MAC{0x01, 0x00, 0x5E, 0, 0, 1}.Uint64()} {
		if !JunkMAC(k) {
			t.Fatalf("JunkMAC(%#x) = false", k)
		}
	}
	if JunkMAC(macKey(0)) {
		t.Fatal("JunkMAC rejects a host address")
	}
}

func junkPredicate[K comparable](t *testing.T, policy Policy, key func(int) K) {
	ports := testPorts(1)
	bad := key(0)
	guarded := New(time.Millisecond, time.Second, Config{Policy: policy}, func(k K) bool { return k == bad }, hashOf[K]())
	guarded.Lock(bad, ports[0], 0)
	guarded.Learn(bad, ports[0], 0)
	if _, ok := guarded.Get(bad, 0); ok || guarded.Len() != 0 || guarded.Entries() != 0 {
		t.Fatalf("junk key admitted: %d entries, %d resident", guarded.Entries(), guarded.Len())
	}
	guarded.Learn(key(1), ports[0], 0)
	if guarded.Len() != 1 {
		t.Fatal("legitimate key rejected")
	}

	open := New[K](time.Millisecond, time.Second, Config{Policy: policy}, nil, hashOf[K]())
	open.Lock(bad, ports[0], 0)
	if _, ok := open.Get(bad, 0); !ok {
		t.Fatal("table without a predicate rejected a key")
	}
}

// TestResetKeepsLifetimeCounters: Reset is total state loss — entries,
// port generations, sweep deadline, tracker — but the lifetime statistics
// survive, and the table works as new afterwards.
func TestResetKeepsLifetimeCounters(t *testing.T) {
	matrix(t, resetKeepsLifetimeCounters[uint64], resetKeepsLifetimeCounters[key128])
}

func resetKeepsLifetimeCounters[K comparable](t *testing.T, policy Policy, key func(int) K) {
	ports := testPorts(2)
	const capacity = 8
	tb := New[K](time.Millisecond, time.Hour, Config{Capacity: capacity, Policy: policy}, nil, hashOf[K]())
	now := 10 * time.Millisecond
	for i := 0; i < 3*capacity; i++ {
		tb.Learn(key(i), ports[i%2], now)
		now += 2 * time.Millisecond
	}
	evictions, peak := tb.Evictions(), tb.PeakEntries()
	if evictions == 0 || peak == 0 {
		t.Fatalf("fixture produced evictions=%d peak=%d", evictions, peak)
	}

	tb.Reset()
	if tb.Len() != 0 || tb.Entries() != 0 || len(tb.ports) != 0 {
		t.Fatalf("after Reset: %d resident, %d entries, %d port records", tb.Len(), tb.Entries(), len(tb.ports))
	}
	if tb.Evictions() != evictions || tb.PeakEntries() != peak {
		t.Fatalf("Reset lost lifetime counters: evictions %d→%d, peak %d→%d",
			evictions, tb.Evictions(), peak, tb.PeakEntries())
	}
	checkAccounting(t, tb)

	tb.Learn(key(0), ports[0], now)
	if e, ok := tb.Get(key(0), now); !ok || e.Port != ports[0] {
		t.Fatal("learn after Reset failed")
	}
	if got := tb.FlushPort(ports[0]); got != 1 {
		t.Fatalf("FlushPort after Reset invalidated %d entries, want 1", got)
	}
}

// TestStaleRefNeverRefreshesAnotherEntry: a Ref dies with its entry. Held
// across an eviction, a Delete, a sweep, a Reset or a FlushPort — and
// across another key's admission into the very cell it names — RefreshAt
// must leave whatever lives in the table now exactly as it was.
func TestStaleRefNeverRefreshesAnotherEntry(t *testing.T) {
	matrix(t, staleRef[uint64], staleRef[key128])
}

// homeZero homes every key at cell 0: whatever the table holds is one run
// from the array's start, so the first admission into an empty table
// retakes the cell its predecessor sat in, and a delete at the head shifts
// the whole run.
func homeZero[K comparable](K) uint64 { return 0 }

func staleRef[K comparable](t *testing.T, policy Policy, key func(int) K) {
	const lifetime = time.Second
	ports := testPorts(2)
	// kill removes key(0)'s entry at time `at`, leaving the table empty.
	for name, kill := range map[string]func(tb *Table[K], at time.Duration){
		"evicted": func(tb *Table[K], at time.Duration) { // capacity 1: the next key takes its place
			tb.Learn(key(9), ports[0], at)
			tb.Delete(key(9))
		},
		"deleted": func(tb *Table[K], _ time.Duration) { tb.Delete(key(0)) },
		"swept":   func(tb *Table[K], at time.Duration) { tb.FlushExpired(at + 2*lifetime) },
		"reset":   func(tb *Table[K], _ time.Duration) { tb.Reset() },
		"flushed": func(tb *Table[K], at time.Duration) {
			tb.FlushPort(ports[0])
			tb.FlushExpired(at)
		},
	} {
		tb := New(time.Millisecond, lifetime, Config{Capacity: 1, Policy: policy}, nil, homeZero[K])
		now := 10 * time.Millisecond
		tb.Learn(key(0), ports[0], now)
		stale, _, ok := tb.Find(key(0), now)
		if !ok {
			t.Fatalf("%s: fixture: learned key not found", name)
		}
		kill(tb, now)
		if tb.Entries() != 0 {
			t.Fatalf("%s: fixture: %d entries survive the kill", name, tb.Entries())
		}

		// The cell's next tenant: another key, another port.
		tb.Learn(key(1), ports[1], now)
		fresh, before, _ := tb.Find(key(1), now)
		if fresh.slot != stale.slot {
			t.Fatalf("%s: fixture: the cell was not retaken (cell %d, then %d)", name, stale.slot, fresh.slot)
		}
		later := now + lifetime/2
		tb.RefreshAt(stale, later)
		if after, ok := tb.Get(key(1), later); !ok || after != before {
			t.Fatalf("%s: a stale Ref rewrote the cell's new tenant: %+v -> %+v (ok=%v)", name, before, after, ok)
		}
		// The live Ref still works, and the zero Ref never does.
		tb.RefreshAt(Ref[K]{}, later)
		tb.RefreshAt(fresh, later)
		if after, _ := tb.Get(key(1), later); after.Expires != later+lifetime {
			t.Fatalf("%s: live Ref did not refresh: expires %v, want %v", name, after.Expires, later+lifetime)
		}
		// Nor does the stale Ref refresh its own key's next admission.
		tb.Learn(key(0), ports[0], later)
		readmitted, _ := tb.Get(key(0), later)
		tb.RefreshAt(stale, later+lifetime/4)
		if after, _ := tb.Get(key(0), later); after != readmitted {
			t.Fatalf("%s: a stale Ref refreshed its key's next admission: %+v -> %+v", name, readmitted, after)
		}
		checkAccounting(t, tb)
	}

	// A Ref to an entry whose port was flushed (the corpse still resident)
	// must not resurrect it.
	tb := New[K](time.Millisecond, lifetime, Config{Policy: policy}, nil, hashOf[K]())
	tb.Learn(key(0), ports[0], 0)
	r, _, _ := tb.Find(key(0), 0)
	tb.FlushPort(ports[0])
	tb.RefreshAt(r, time.Millisecond)
	if _, ok := tb.Get(key(0), time.Millisecond); ok || tb.Len() != 0 {
		t.Fatal("RefreshAt resurrected an entry behind a flushed port")
	}
}

// TestRefSurvivesMoves: a record moves when the array grows and when a
// delete shifts its run back, and a Ref held across the move still
// refreshes exactly its own entry — found again by key, matched by
// incarnation — while one whose entry has gone refreshes nothing.
func TestRefSurvivesMoves(t *testing.T) {
	matrix(t, refSurvivesMoves[uint64], refSurvivesMoves[key128])
}

func refSurvivesMoves[K comparable](t *testing.T, policy Policy, key func(int) K) {
	const lifetime = time.Second
	ports := testPorts(1)
	now, later := 10*time.Millisecond, 500*time.Millisecond
	// refreshOnly applies r at later and requires that exactly want's entry
	// (if any) moved its deadline, every other key's entry standing still.
	refreshOnly := func(tb *Table[K], r Ref[K], want int, keys int) {
		t.Helper()
		before := tb.Snapshot(later)
		tb.RefreshAt(r, later)
		for i := 0; i < keys; i++ {
			e, ok := tb.Get(key(i), later)
			if b, had := before[key(i)]; ok != had || (i != want && e != b) {
				t.Fatalf("key %d: %+v -> %+v (ok %v→%v)", i, b, e, had, ok)
			}
			if i == want && e.Expires != later+lifetime {
				t.Fatalf("key %d: expires %v, want %v", i, e.Expires, later+lifetime)
			}
		}
		checkAccounting(t, tb)
	}

	t.Run("grow", func(t *testing.T) {
		// Every key homes at firstCells: cell 0 of the first array, cell
		// firstCells once the array has doubled.
		tb := New(time.Millisecond, lifetime, Config{Policy: policy}, nil, func(K) uint64 { return firstCells })
		tb.Learn(key(0), ports[0], now)
		r, _, _ := tb.Find(key(0), now)
		keys := 1
		for ; len(tb.cells) == firstCells; keys++ {
			tb.Learn(key(keys), ports[0], now)
		}
		if tb.cells[r.slot].seq == r.seq {
			t.Fatalf("fixture: %d cells, record still in cell %d", len(tb.cells), r.slot)
		}
		refreshOnly(tb, r, 0, keys)
	})
	t.Run("shift", func(t *testing.T) {
		tb := New(time.Millisecond, lifetime, Config{Policy: policy}, nil, homeZero[K])
		for i := 0; i < 3; i++ {
			tb.Learn(key(i), ports[0], now)
		}
		r, _, _ := tb.Find(key(2), now)
		tb.Delete(key(0)) // key(1) and key(2) shift back a cell
		if tb.cells[r.slot].seq == r.seq {
			t.Fatalf("fixture: record still in cell %d", r.slot)
		}
		refreshOnly(tb, r, 2, 3)

		tb.Delete(key(2))
		tb.Learn(key(3), ports[0], now) // retakes the record's first cell
		refreshOnly(tb, r, -1, 4)
		tb.Learn(key(2), ports[0], now) // the key again, a new admission
		refreshOnly(tb, r, -1, 4)
	})
}

// TestCapacityReservesAtMostTwoMiB: a spec's table_capacity sizes the probe
// array at construction, but only up to maxPresizeBytes — a thousand
// bridges told "a million entries each" must not reserve gigabytes before
// the first frame. Past the reservation the table grows like an unbounded
// one, and the bound still holds.
func TestCapacityReservesAtMostTwoMiB(t *testing.T) {
	matrix(t, capacityReservesAtMost[uint64], capacityReservesAtMost[key128])
}

func capacityReservesAtMost[K comparable](t *testing.T, policy Policy, key func(int) K) {
	const capacity = 1 << 20
	tb := New[K](time.Millisecond, time.Hour, Config{Capacity: capacity, Policy: policy}, nil, hashOf[K]())
	if reserved := cap(tb.cells) * int(unsafe.Sizeof(tb.cells[0])); reserved > 2<<20 || reserved <= 1<<20 {
		t.Fatalf("New reserves %d bytes for capacity %d, want (1 MiB, 2 MiB]", reserved, capacity)
	}
	ports := testPorts(1)
	reserved, n := len(tb.cells), 2*len(tb.cells) // twice what the reservation holds at load 1/2
	for i := range n {
		tb.Learn(key(i), ports[0], 0)
	}
	if tb.Entries() != n || len(tb.cells) <= reserved || tb.Evictions() != 0 {
		t.Fatalf("%d keys learned: %d entries, %d evictions, array %d → %d cells", n, tb.Entries(), tb.Evictions(), reserved, len(tb.cells))
	}
}

// TestHitPathDoesNotAllocate: the forwarding path's two table calls — one
// probe plus a refresh by handle for the destination, a same-port learn
// for the source — run allocation-free, tracked or not.
func TestHitPathDoesNotAllocate(t *testing.T) {
	ports := testPorts(1)
	const n = 512
	for _, bound := range []Config{{}, {Capacity: 2 * n, Policy: PolicyLRU}} {
		tb := New(time.Millisecond, time.Hour, bound, JunkMAC, Mix64)
		for i := 0; i < n; i++ {
			tb.Learn(macKey(i), ports[0], 0)
		}
		now, i := time.Duration(0), 0
		if avg := testing.AllocsPerRun(1000, func() {
			now += time.Microsecond
			i++
			r, _, ok := tb.Find(macKey(i%n), now)
			if !ok {
				t.Fatal("learned entry vanished")
			}
			tb.RefreshAt(r, now)
		}); avg != 0 {
			t.Fatalf("%+v: Find+RefreshAt allocates %.1f per hit", bound, avg)
		}
		if avg := testing.AllocsPerRun(1000, func() {
			now += time.Microsecond
			i++
			tb.Learn(macKey(i%n), ports[0], now)
		}); avg != 0 {
			t.Fatalf("%+v: same-port Learn allocates %.1f per call", bound, avg)
		}
	}
}

// TestBoundedChurnDoesNotAllocate: a bounded table's probe array is sized
// from its capacity at construction, and cells and tracker nodes are
// recycled — so once the table has filled, admitting a
// never-seen key by evicting the coldest one (discovery_churn's regime,
// and what a MAC-flooding station does to a switch) allocates nothing.
func TestBoundedChurnDoesNotAllocate(t *testing.T) {
	matrix(t, boundedChurnDoesNotAllocate[uint64], boundedChurnDoesNotAllocate[key128])
}

func boundedChurnDoesNotAllocate[K comparable](t *testing.T, policy Policy, key func(int) K) {
	const capacity = 256
	ports := testPorts(2)
	tb := New[K](time.Microsecond, time.Hour, Config{Capacity: capacity, Policy: policy}, nil, hashOf[K]())
	cells := len(tb.cells)
	now, i := time.Duration(0), 0
	admit := func() {
		now += time.Millisecond // past the previous key's race window: the victim is evictable
		if i%3 == 0 {
			tb.Learn(key(i), ports[i%2], now)
		} else {
			tb.Lock(key(i), ports[i%2], now)
		}
		i++
	}
	for range 2 * capacity {
		admit()
	}
	if avg := testing.AllocsPerRun(20*capacity, admit); avg != 0 {
		t.Fatalf("insert+evict at capacity allocates %.2f per key", avg)
	}
	if tb.Entries() != capacity || tb.Evictions() == 0 || len(tb.cells) != cells {
		t.Fatalf("%d entries (bound %d), %d evictions, array %d → %d cells",
			tb.Entries(), capacity, tb.Evictions(), cells, len(tb.cells))
	}
}

// TestRaceTruthTable pins the first-port rule row by row: what the entry
// for the key looks like when a flood copy arrives on port A × whether the
// frame may open a race → the verdict and the entry left behind.
func TestRaceTruthTable(t *testing.T) {
	matrix(t, raceTruthTable[uint64], raceTruthTable[key128])
}

func raceTruthTable[K comparable](t *testing.T, policy Policy, key func(int) K) {
	const (
		lock    = 10 * time.Millisecond
		learned = time.Second
		now     = time.Millisecond // the copy arrives inside a window opened at 0
	)
	ports := testPorts(2)
	a, b := ports[0], ports[1]
	k := key(7)
	absent := func(*Table[K]) {}
	learnedOn := func(p *netsim.Port) func(*Table[K]) {
		return func(tb *Table[K]) { tb.Learn(k, p, 0) } // confirmed, window long over
	}
	confirmedInWindow := func(tb *Table[K]) { // the reply came back before the window closed
		tb.Lock(k, b, 0)
		tb.Learn(k, b, 0)
	}
	rows := []struct {
		name         string
		setup        func(*Table[K])
		establishing bool
		verdict      Verdict
		port         *netsim.Port
		state        State
		lockedUntil  time.Duration
	}{
		// port nil: the table refuses k, so it is never bound — and never wins.
		{"junk/establishing", absent, true, RaceLost, nil, 0, 0},
		{"junk/other", absent, false, RaceLost, nil, 0, 0},
		{"absent/establishing", absent, true, RaceWon, a, StateLocked, now + lock},
		{"absent/other", absent, false, RaceWon, a, StateLocked, now + lock},
		{"same-port/establishing", learnedOn(a), true, RacePass, a, StateLocked, now + lock},
		{"same-port/other", learnedOn(a), false, RacePass, a, StateLearned, 0},
		{"other-port-guarded/establishing", confirmedInWindow, true, RaceLost, b, StateLearned, lock},
		{"other-port-guarded/other", confirmedInWindow, false, RaceLost, b, StateLearned, lock},
		{"other-port-unguarded/establishing", learnedOn(b), true, RaceWon, a, StateLocked, now + lock},
		{"other-port-unguarded/other", learnedOn(b), false, RaceLost, b, StateLearned, 0},
	}
	for _, r := range rows {
		var refuse func(K) bool
		if r.port == nil {
			refuse = func(x K) bool { return x == k }
		}
		tb := New[K](lock, learned, Config{Capacity: 4, Policy: policy}, refuse, hashOf[K]())
		r.setup(tb)
		if got := tb.Race(k, a, now, r.establishing); got != r.verdict {
			t.Errorf("%s: verdict %d, want %d", r.name, got, r.verdict)
		}
		e, ok := tb.Get(k, now)
		if r.port == nil {
			if ok || tb.Entries() != 0 {
				t.Errorf("%s: refused key left an entry (%v, %d resident)", r.name, e.Port, tb.Entries())
			}
		} else if !ok || e.Port != r.port || e.State != r.state || e.LockedUntil != r.lockedUntil {
			t.Errorf("%s: entry (%v, %v, until %v, ok %v), want (%v, %v, until %v)", r.name,
				e.Port, e.State, e.LockedUntil, ok, r.port, r.state, r.lockedUntil)
		}
		checkAccounting(t, tb)
	}
}
