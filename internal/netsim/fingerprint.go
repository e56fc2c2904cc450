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
type TapFingerprint struct {
	fp     uint64
	events uint64
	ids    map[uint64]uint32
}

// NewTapFingerprint returns an empty fingerprint; feed it with Observe
// (typically by registering it as a tap: n.Tap(f.Observe)).
func NewTapFingerprint() *TapFingerprint {
	return &TapFingerprint{ids: make(map[uint64]uint32)}
}

// NormID normalizes a frame identity to its first-seen index.
func (t *TapFingerprint) NormID(id uint64) uint32 {
	if n, ok := t.ids[id]; ok {
		return n
	}
	n := uint32(len(t.ids)) + 1
	t.ids[id] = n
	return n
}

// Observe folds one tap event into the digest.
func (t *TapFingerprint) Observe(ev TapEvent) {
	t.fold(uint64(ev.At), uint64(ev.Kind), uint64(t.NormID(ev.FrameID)), uint64(len(ev.Frame)))
	t.fold(ev.From.nameHash)
	t.fold(ev.To.nameHash)
	t.events++
}

// Sum returns the digest over everything observed so far.
func (t *TapFingerprint) Sum() uint64 { return t.fp }

// Events returns the number of tap events folded in.
func (t *TapFingerprint) Events() uint64 { return t.events }

// fold mixes integers into the FNV-1a state.
func (t *TapFingerprint) fold(vs ...uint64) {
	h := t.fp
	if h == 0 {
		h = 14695981039346656037 // FNV-1a offset basis
	}
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	t.fp = h
}

// fnvString is FNV-1a(s), the value hash/fnv produces. The fingerprint
// folds a port as the hash of its name; names are fixed at cabling, so
// Connect computes this once per port (Port.nameHash) and Observe never
// walks a string.
func fnvString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
