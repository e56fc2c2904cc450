package tables

// index is the table's key index: key → slab slot, open-addressed with
// linear probing over a power-of-two bucket array held at load ≤ 1/2
// (DESIGN.md §5). It exists because the forwarding path probes twice per
// hop and a Go map charges a runtime call and a directory → group →
// control-word → slot walk per probe; here a hit is one hash, one mask and
// — at this load, with a mixing hash — one or two adjacent cache lines.
//
// Removal shifts the rest of the run back over the hole instead of leaving
// a tombstone, so a table that has churned probes exactly as short as a
// fresh one of the same content. Nothing observable depends on bucket
// order: sweeps and Snapshot walk the slab, victims come from the tracker.
type index[K comparable] struct {
	buckets []bucket[K] // nil or a power-of-two length
	n       int         // occupied buckets
	hash    func(K) uint64
}

// bucket is one index cell, the key stored inline so a probe compares
// without leaving the bucket array.
type bucket[K comparable] struct {
	key K
	ref int32 // slab slot + 1; 0 marks the bucket empty
}

const (
	minBuckets = 8
	// maxPresize caps what a capacity bound may reserve up front. The
	// bound arrives from a spec file, and a table told "at most 2^40
	// entries" must not try to allocate for them; past this the index
	// grows on demand like an unbounded one.
	maxPresize = 1 << 16
)

// newIndex returns an empty index over hash. A positive capacity sizes the
// bucket array once, here, so a bounded table's index never grows (unless
// open race windows push the table over its bound; makeRoom).
func newIndex[K comparable](hash func(K) uint64, capacity int) index[K] {
	x := index[K]{hash: hash}
	if capacity > 0 {
		x.buckets = make([]bucket[K], bucketsFor(min(capacity, maxPresize)))
	}
	return x
}

// bucketsFor returns the smallest legal bucket count holding n keys at
// load ≤ 1/2.
func bucketsFor(n int) int {
	size := minBuckets
	for size < 2*n {
		size *= 2
	}
	return size
}

// get returns the slab slot stored under key. The caller passes key's hash
// (x.hash(key)): with the one indirect call outside, the probe loop is
// small enough to inline into Find and Learn. The loop condition is true
// of every masked i unless the bucket array is still nil, where it ends
// the probe at once; stating it also lets the compiler drop the bounds
// check on bs[i].
//
//fabric:hotpath
func (x *index[K]) get(h uint64, key K) (int32, bool) {
	bs := x.buckets
	mask := uint64(len(bs) - 1)
	for i := h & mask; i < uint64(len(bs)); i = (i + 1) & mask {
		b := &bs[i]
		if b.ref == 0 {
			break
		}
		if b.key == key {
			return b.ref - 1, true
		}
	}
	return 0, false
}

// put stores slot under key, which must not be present: every caller has
// just probed for it (Table.store's contract).
func (x *index[K]) put(key K, slot int32) {
	if 2*(x.n+1) > len(x.buckets) {
		x.grow()
	}
	x.place(key, slot+1)
	x.n++
}

// place writes (key, ref) into the first empty bucket of key's run.
func (x *index[K]) place(key K, ref int32) {
	mask := uint64(len(x.buckets) - 1)
	i := x.hash(key) & mask
	for x.buckets[i].ref != 0 {
		i = (i + 1) & mask
	}
	x.buckets[i] = bucket[K]{key, ref}
}

// grow doubles the bucket array (or allocates the first one) and rehashes.
func (x *index[K]) grow() {
	old := x.buckets
	x.buckets = make([]bucket[K], bucketsFor(x.n+1))
	for _, b := range old {
		if b.ref != 0 {
			x.place(b.key, b.ref)
		}
	}
}

// del removes key, if present, and closes the hole by backward shift: each
// later bucket of the run moves into the hole unless its home position
// lies cyclically in (hole, bucket] — moving that one would put it before
// its home, where no probe would find it. The run ends at the first empty
// bucket, which load ≤ 1/2 guarantees exists.
func (x *index[K]) del(key K) {
	if x.n == 0 {
		return
	}
	mask := uint64(len(x.buckets) - 1)
	hole := x.hash(key) & mask
	for ; ; hole = (hole + 1) & mask {
		if b := &x.buckets[hole]; b.ref == 0 {
			return
		} else if b.key == key {
			break
		}
	}
	for j := (hole + 1) & mask; x.buckets[j].ref != 0; j = (j + 1) & mask {
		home := x.hash(x.buckets[j].key) & mask
		if (j-home)&mask >= (j-hole)&mask {
			x.buckets[hole] = x.buckets[j]
			hole = j
		}
	}
	x.buckets[hole] = bucket[K]{}
	x.n--
}

// reset empties the index, keeping its bucket array.
func (x *index[K]) reset() {
	clear(x.buckets)
	x.n = 0
}

// Mix64 is the index hash for packed 64-bit keys: the splitmix64
// finalizer, a bijection in which every input bit flips every output bit
// with probability ≈ 1/2. The index keeps only the low bits, so anything
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

// Mix128 is the index hash for two-word keys (a directed pair, a
// connection tuple): the first word is mixed before the second joins, so
// (a, b) and (b, a) land apart and holding either word constant leaves a
// full Mix64 over the other.
func Mix128(hi, lo uint64) uint64 { return Mix64(Mix64(hi) + lo) }
