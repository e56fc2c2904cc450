package sim

import "math/rand"

// Stream is one entity's deterministic random stream: the engine's, a
// bridge's (PathCtl nonces), a host's (TCP ISNs) or a link direction's
// (losses). Draws depend on the seed and that entity's own history, never
// on event interleaving, so they agree at every shard count (DESIGN.md
// §6). The source is seeded on the first draw: seeding costs ≈ 10 µs and
// a 4.9 KB array, and most entities never draw.
type Stream struct {
	seed int64
	rng  *rand.Rand
}

// Domain separates the per-entity streams of one run: entity id draws
// from seed ^ (id+1)*d. Without distinct multipliers a low-numbered bridge
// and a low-indexed link direction would draw byte-identical streams. The
// engine's stream is the run seed itself.
type Domain int64

const (
	Bridges  Domain = 0x5851F42D4C957F2D // by bridge number
	Hosts    Domain = 0x2545F4914F6CDD1D // by host number
	LinkDirs Domain = 0x6A09E667F3BCC909 // by link index*2 + sending side
)

// Stream returns the unseeded stream of entity id under the run seed.
func (d Domain) Stream(seed int64, id int) Stream {
	return Stream{seed: seed ^ (int64(id)+1)*int64(d)}
}

// Rand returns the stream's source, seeding it on the first call.
func (s *Stream) Rand() *rand.Rand {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng
}

// Seeded reports whether anything has drawn from the stream yet.
func (s *Stream) Seeded() bool { return s.rng != nil }
