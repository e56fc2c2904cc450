package tables

import "unsafe"

// The table's records live in its probe array (DESIGN.md §5): a
// power-of-two slice of slot[K], open-addressed with linear probing from
// hash(key) & mask and held at load ≤ 1/2. The forwarding path probes twice
// per hop, and past the CPU caches each dependent load is a miss; with the
// record in the cell the probe lands on, a hit is one hash, one mask and —
// at this load, with a mixing hash — one cache line holding the key, the
// port, the state and both deadlines.
//
// Removal shifts the rest of the run back over the hole instead of leaving
// a tombstone, so a table that has churned probes exactly as short as a
// fresh one of the same content. Records therefore move — on a shift and
// on grow — and every move re-points the record's tracker node (Rekey).
// Nothing observable depends on cell order: victims come from the tracker,
// whose removals commute, and Snapshot returns a map.

const (
	minCells = 8
	// firstCells is an unbounded table's first array: 2 KiB of MAC records,
	// room for 16. Set-up time follows the bytes a fabric's tables
	// allocate: a smaller first array adds growth garbage on every bridge
	// that learns hundreds of addresses (wide_unicast's, an extra
	// collection), a larger one zeroes memory that a fabric of many small
	// tables never uses (discovery_churn's twelve builds).
	firstCells = 32
	// maxPresizeBytes caps what a capacity bound may reserve up front. The
	// bound arrives from a spec file, and a table told "at most 2^40
	// entries" must not try to allocate for them; past this the array grows
	// on demand like an unbounded one's.
	maxPresizeBytes = 2 << 20
)

// cellsFor returns the smallest legal array length holding n records at
// load ≤ 1/2.
func cellsFor(n int) int {
	size := minCells
	for size < 2*n {
		size *= 2
	}
	return size
}

// presize returns the array length a capacity bound reserves at
// construction: room for capacity records, cut to maxPresizeBytes.
func presize[K comparable](capacity int) int {
	size := cellsFor(capacity)
	for size > minCells && uintptr(size)*unsafe.Sizeof(slot[K]{}) > maxPresizeBytes {
		size /= 2
	}
	return size
}

// probe looks key up given its hash (t.hash(key)): with the one indirect
// call outside, the loop is small enough to inline into Find and Learn. It
// returns the cell holding key or, on a miss, the empty cell that ends
// key's run — where an insert would place it — and -1 while the array is
// still nil. The loop condition is true of every masked i unless the array
// is nil, where it ends the probe at once; stating it also lets the
// compiler drop the bounds check on cs[i].
//
//fabric:hotpath
func (t *Table[K]) probe(h uint64, key K) (int32, bool) {
	cs := t.cells
	mask := uint64(len(cs) - 1)
	for i := h & mask; i < uint64(len(cs)); i = (i + 1) & mask {
		c := &cs[i]
		if c.seq == 0 {
			return int32(i), false
		}
		if c.key == key {
			return int32(i), true
		}
	}
	return -1, false
}

// moved re-points the tracker node of the record now in cell i.
func (t *Table[K]) moved(i int32) {
	if t.tracker != nil {
		t.tracker.Rekey(t.cells[i].th, i)
	}
}

// grow doubles the array (or allocates the first one) and rehashes the
// records into it.
func (t *Table[K]) grow() {
	old := t.cells
	t.cells = make([]slot[K], max(cellsFor(t.n+1), firstCells))
	for j := range old {
		if c := &old[j]; c.seq != 0 {
			i, _ := t.probe(t.hash(c.key), c.key)
			t.cells[i] = *c
			t.moved(i)
		}
	}
}

// shiftBack empties cell hole, whose record has been unaccounted, and
// closes the gap by backward shift: each later record of the run moves into
// the hole unless its home lies cyclically in (hole, cell] — moving that
// one would put it before its home, where no probe would find it. The run
// ends at the first empty cell, which load ≤ 1/2 guarantees exists.
func (t *Table[K]) shiftBack(hole int32) {
	cs := t.cells
	mask := uint64(len(cs) - 1)
	h := uint64(hole)
	for j := (h + 1) & mask; cs[j].seq != 0; j = (j + 1) & mask {
		home := t.hash(cs[j].key) & mask
		if (j-home)&mask >= (j-h)&mask {
			cs[h] = cs[j]
			t.moved(int32(h))
			h = j
		}
	}
	cs[h] = slot[K]{}
}

// Mix64 is the table hash for packed 64-bit keys: the splitmix64
// finalizer, a bijection in which every input bit flips every output bit
// with probability ≈ 1/2. The probe keeps only the low bits, so anything
// weaker — the identity, one multiply — would map MACs that agree in their
// low bytes (one vendor's OUI block, a counter in the high bytes) onto one
// run. It is fixed and unseeded on purpose: the same fabric must probe the
// same way on every run and every shard count, and neither hash/maphash's
// per-process seed nor a reflected key walk belongs on the hit path. What
// that costs against crafted keys is stated in DESIGN.md §5.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Mix128 is the table hash for two-word keys (a directed pair, a
// connection tuple): the first word is mixed before the second joins, so
// (a, b) and (b, a) land apart and holding either word constant leaves a
// full Mix64 over the other.
func Mix128(hi, lo uint64) uint64 { return Mix64(Mix64(hi) + lo) }
