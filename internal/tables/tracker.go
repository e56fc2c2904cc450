package tables

// Handle names a tracked entry. The zero Handle is invalid (it indexes the
// list sentinel); table entries store their handle inline so every tracker
// operation on a known entry is O(1) with no map lookup.
type Handle int32

type node[K comparable] struct {
	key        K
	prev, next int32
	ref        bool // clock reference bit (second chance)
}

// Tracker maintains recency order over a set of keys for victim selection.
// It is an arena of nodes threaded into one circular doubly-linked list
// through a sentinel at index 0; freed nodes go on a free list (threaded
// through next) and are reused before the arena grows, so churn at steady
// occupancy allocates nothing.
//
// List order is recency: sentinel.next is the coldest entry (LRU side),
// sentinel.prev the hottest (MRU side). Under PolicyLRU a Touch relinks to
// the MRU side; under PolicyClock it just sets the reference bit and the
// hand does the aging.
type Tracker[K comparable] struct {
	policy Policy
	nodes  []node[K]
	free   int32 // free-list head, 0 = empty
	hand   int32 // clock hand, 0 = park at LRU side
	n      int
}

// NewTracker returns a tracker for the given policy. PolicyTimeout has no
// victim order; asking for a tracker with it is a programming error.
func NewTracker[K comparable](p Policy) *Tracker[K] {
	if p == PolicyTimeout {
		panic("tables: NewTracker with PolicyTimeout (timeout tables are untracked)")
	}
	t := &Tracker[K]{policy: p}
	t.nodes = make([]node[K], 1, 64) // index 0 is the sentinel
	return t
}

// Len returns the number of tracked keys.
func (t *Tracker[K]) Len() int { return t.n }

// Key returns the key stored under h.
func (t *Tracker[K]) Key(h Handle) K { return t.nodes[h].key }

// Rekey changes the key stored under h, leaving its recency alone: the
// table calls it when a record moves to another cell.
func (t *Tracker[K]) Rekey(h Handle, k K) { t.nodes[h].key = k }

// alloc takes a node off the free list, growing the arena when empty.
func (t *Tracker[K]) alloc() int32 {
	if t.free != 0 {
		i := t.free
		t.free = t.nodes[i].next
		return i
	}
	t.nodes = append(t.nodes, node[K]{})
	return int32(len(t.nodes) - 1)
}

// linkMRU inserts node i at the hot end of the list.
func (t *Tracker[K]) linkMRU(i int32) {
	tail := t.nodes[0].prev
	t.nodes[i].prev = tail
	t.nodes[i].next = 0
	t.nodes[tail].next = i
	t.nodes[0].prev = i
}

// unlink removes node i from the list (not the arena).
func (t *Tracker[K]) unlink(i int32) {
	p, n := t.nodes[i].prev, t.nodes[i].next
	t.nodes[p].next = n
	t.nodes[n].prev = p
}

// Insert starts tracking k as the most recently used key.
func (t *Tracker[K]) Insert(k K) Handle {
	i := t.alloc()
	t.nodes[i] = node[K]{key: k}
	t.linkMRU(i)
	t.n++
	return Handle(i)
}

// Touch records a use of h: LRU relinks it hot, clock sets its reference
// bit and leaves the ring order alone.
//
//fabric:hotpath
func (t *Tracker[K]) Touch(h Handle) {
	i := int32(h)
	if t.policy == PolicyClock {
		t.nodes[i].ref = true
		return
	}
	if t.nodes[0].prev == i {
		return // already MRU
	}
	t.unlink(i)
	t.linkMRU(i)
}

// Remove stops tracking h and recycles its node.
func (t *Tracker[K]) Remove(h Handle) {
	i := int32(h)
	if t.hand == i {
		t.hand = t.nodes[i].next // keep the clock hand on a live node
	}
	t.unlink(i)
	var zero K
	t.nodes[i] = node[K]{key: zero, next: t.free}
	t.free = i
	t.n--
}

// Victim proposes the next eviction candidate without removing it. The
// caller evicts it (Remove) or vetoes it (Reject) — for instance when the
// entry is inside its §2.1.1 race window (Guarded) and must not be
// evicted. Returns false when nothing is tracked.
//
// LRU proposes the cold end. Clock walks the ring from the hand, clearing
// reference bits, and proposes the first unreferenced node; the walk is
// bounded by 2·Len (one full lap clears every bit, the next node then
// qualifies).
func (t *Tracker[K]) Victim() (Handle, bool) {
	if t.n == 0 {
		return 0, false
	}
	if t.policy == PolicyLRU {
		return Handle(t.nodes[0].next), true
	}
	i := t.hand
	if i == 0 {
		i = t.nodes[0].next
	}
	for steps := 2 * t.n; steps > 0; steps-- {
		if i == 0 { // skip the sentinel when wrapping
			i = t.nodes[0].next
		}
		if !t.nodes[i].ref {
			t.hand = i
			return Handle(i), true
		}
		t.nodes[i].ref = false
		i = t.nodes[i].next
	}
	// Unreachable: one lap clears every bit. Keep a defined answer anyway.
	return Handle(t.nodes[0].next), true
}

// Reject gives the proposed victim a reprieve: LRU relinks it hot (so the
// next Victim proposes the next-coldest key); clock re-arms its reference
// bit and advances the hand past it.
func (t *Tracker[K]) Reject(h Handle) {
	i := int32(h)
	if t.policy == PolicyClock {
		t.nodes[i].ref = true
		t.hand = t.nodes[i].next
		return
	}
	t.unlink(i)
	t.linkMRU(i)
}

// Reset forgets every key but keeps the arena for reuse.
func (t *Tracker[K]) Reset() {
	t.nodes = t.nodes[:1]
	t.nodes[0] = node[K]{}
	t.free = 0
	t.hand = 0
	t.n = 0
}
