package netsim

// TapFingerprint folds every tap event into a running FNV-1a digest with
// frame identities normalized to first-seen order. It is THE trace
// fingerprint of the repository — the scenario checker, the scaling
// experiment and the shard determinism tests all share this one
// construction, so their digests are comparable and a change to what a
// fingerprint covers happens in exactly one place. Two runs of the same
// seed must produce equal digests regardless of shard count, GOMAXPROCS,
// or what ran earlier in the process (the normalization removes the
// process-global frame counter).
//
// The digest is FNV-1a over six little-endian 64-bit words per event (At,
// Kind, NormID, frame length, From's and To's name hashes), the state
// re-seeded with the offset basis if it reads zero before the first,
// fifth or sixth word. fingerprint_test.go keeps that definition as a
// byte-at-a-time oracle; foldWord computes the same number faster.
type TapFingerprint struct {
	fp     uint64
	events uint64
	// Frame identity → first-seen index: ids holds every identity seen
	// since the last Forget, memo is a direct-mapped cache in front of it
	// (a frame's events cluster — a flood is one frame on every port back
	// to back — so the map is consulted about once per frame, not per event).
	ids  map[uint64]uint32
	memo [normMemo]normEntry
	zero uint32 // identity 0's index, outside what Forget clears
	last uint32 // the highest index handed out, across Forgets
}

const normMemo = 512

// normEntry is one memo slot; norm 0 marks it empty (indices start at 1).
type normEntry struct {
	id   uint64
	norm uint32
}

// NewTapFingerprint returns an empty fingerprint; feed it with Observe
// (typically by registering it as a tap: n.Tap(f.Observe)).
func NewTapFingerprint() *TapFingerprint {
	return &TapFingerprint{ids: make(map[uint64]uint32)}
}

// NormID normalizes a frame identity to its first-seen index. Identity 0
// is not a frame: every drop at origination (Port.Send into a link that is
// down, lossy or full) carries it, for the whole session.
func (t *TapFingerprint) NormID(id uint64) uint32 {
	if id == 0 {
		if t.zero == 0 {
			t.last++
			t.zero = t.last
		}
		return t.zero
	}
	m := &t.memo[id%normMemo]
	if m.id == id && m.norm != 0 {
		return m.norm
	}
	n, ok := t.ids[id]
	if !ok {
		t.last++
		n = t.last
		t.ids[id] = n
	}
	*m = normEntry{id: id, norm: n}
	return n
}

// Forget drops every recorded frame identity; numbering carries on where
// it stopped. It is legal only when no frame observed so far can be
// observed again — for a tap on one Network, whenever its LiveFrames() is
// zero between runs: a frame's identity is never reissued, and identity 0,
// which every origination drop shares, keeps its index through the call,
// so every later NormID, Sum and Events is what it would have been without
// it. A long-lived observer calls it to keep the table at the size of what
// is in flight instead of every frame ever sent.
func (t *TapFingerprint) Forget() {
	if len(t.ids) == 0 {
		return // the memo only holds what the map holds
	}
	clear(t.ids)
	t.memo = [normMemo]normEntry{}
}

// Observe folds one tap event into the digest.
func (t *TapFingerprint) Observe(ev TapEvent) {
	h := foldWord(reseed(t.fp), uint64(ev.At))
	h = foldWord(h, uint64(ev.Kind))
	h = foldWord(h, uint64(t.NormID(ev.FrameID)))
	h = foldWord(h, uint64(len(ev.Frame)))
	h = foldWord(reseed(h), ev.From.nameHash)
	t.fp = foldWord(reseed(h), ev.To.nameHash)
	t.events++
}

// reseed starts a zero state at the FNV-1a offset basis.
func reseed(h uint64) uint64 {
	if h == 0 {
		return fnvBasis
	}
	return h
}

// Sum returns the digest over everything observed so far.
func (t *TapFingerprint) Sum() uint64 { return t.fp }

// Events returns the number of tap events folded in.
func (t *TapFingerprint) Events() uint64 { return t.events }

const (
	fnvBasis = 14695981039346656037
	fnvPrime = 1099511628211
)

// fnvPow[k] is fnvPrime^k mod 2^64.
var fnvPow = func() (p [9]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = p[k-1] * fnvPrime
	}
	return p
}()

// foldWord mixes v's eight little-endian bytes into the FNV-1a state h.
// A zero byte folds as h *= prime, so the k zero bytes above v's highest
// set byte are one multiplication by prime^k: a small word (a Kind, a
// length, a timestamp) costs its significant bytes plus one multiply.
func foldWord(h, v uint64) uint64 {
	k := 8
	for ; v != 0; v >>= 8 {
		h = (h ^ v&0xff) * fnvPrime
		k--
	}
	return h * fnvPow[k]
}

// fnvString is FNV-1a(s), the value hash/fnv produces. The fingerprint
// folds a port as the hash of its name; names are fixed at cabling, so
// Connect computes this once per port (Port.nameHash) and Observe never
// walks a string.
func fnvString(s string) uint64 {
	h := uint64(fnvBasis)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}
