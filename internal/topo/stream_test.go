package topo_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// streamOwner is what a bridge (through its chassis) and a host expose of
// their random stream.
type streamOwner interface {
	Name() string
	Stream() *sim.Stream
}

// seededStreams lists every stream of the fabric that something has drawn
// from: "engine", a node's name, or a link direction "link<i>/<side>".
func seededStreams(n *topo.Net) []string {
	var out []string
	if n.Engine.Stream().Seeded() {
		out = append(out, "engine")
	}
	for _, nd := range n.Nodes() {
		if o, ok := nd.(streamOwner); ok && o.Stream().Seeded() {
			out = append(out, o.Name())
		}
	}
	for i, l := range n.Links() {
		for side, p := range l.Ports() {
			if l.LossStream(p).Seeded() {
				out = append(out, fmt.Sprintf("link%d/%d", i, side))
			}
		}
	}
	return out
}

// sameDraws fails unless the first 64 draws of s are those of a source
// seeded with want, and checks that s was not seeded before them.
func sameDraws(t *testing.T, what string, s *sim.Stream, want int64) {
	t.Helper()
	if s.Seeded() {
		t.Fatalf("%s: stream seeded before its first draw", what)
	}
	ref := rand.New(rand.NewSource(want))
	for i := 0; i < 64; i++ {
		if got, exp := s.Rand().Int63(), ref.Int63(); got != exp {
			t.Fatalf("%s: draw %d = %d, want %d (seed %#x)", what, i, got, exp, want)
		}
	}
}

// TestStreamsDrawFromTheDocumentedSeed holds each of the four stream
// owners to the derivation stated beside sim.Stream: seeding a stream on
// its first draw instead of at construction changes no draw.
func TestStreamsDrawFromTheDocumentedSeed(t *testing.T) {
	const seed = 7
	built := topo.Line(topo.DefaultOptions(topo.ARPPath, seed), 2)
	sameDraws(t, "engine", built.Engine.Stream(), seed)
	for _, br := range built.Bridges {
		c := br.(interface {
			streamOwner
			NumID() int
		})
		sameDraws(t, c.Name(), c.Stream(), seed^(int64(c.NumID())+1)*0x5851F42D4C957F2D)
	}
	for n, name := range []string{"H1", "H2"} {
		sameDraws(t, name, built.Host(name).Stream(), seed^(int64(n+1)+1)*0x2545F4914F6CDD1D)
	}
	for i, l := range built.Network.Links() {
		for side, p := range l.Ports() {
			sameDraws(t, l.String(), l.LossStream(p), seed^(int64(i*2+side)+1)*0x6A09E667F3BCC909)
		}
	}
}

// TestBuildSeedsNoStream: a build and its warm-up draw nothing from a
// stream unless the family itself is seeded, and then only from the
// engine's (the wiring and delays of RandomRegular).
func TestBuildSeedsNoStream(t *testing.T) {
	for _, shards := range []int{1, 2} {
		opts := topo.DefaultOptions(topo.ARPPath, 1)
		opts.Shards = shards
		if got := seededStreams(topo.FatTree(opts, 4).Net); len(got) != 0 {
			t.Errorf("shards=%d: FatTree(4) seeded %v, want none", shards, got)
		}
		if got := seededStreams(topo.RandomRegular(opts, 32, 3).Net); !slices.Equal(got, []string{"engine"}) {
			t.Errorf("shards=%d: RandomRegular(32, 3) seeded %v, want [engine]", shards, got)
		}
	}
}

// TestLossDrawsIgnoreSharding: the k-th frame admitted on a lossy
// direction sees the same draw at every shard count, because the draw
// comes from the direction's own stream and not from an engine's.
func TestLossDrawsIgnoreSharding(t *testing.T) {
	lost := func(shards int) []bool {
		built, frame := establishedLineSharded(t, topo.ARPPath, 8, shards)
		l := built.Link("S4-S5")
		l.SetLoss(l.A(), 0.3)
		h2 := built.Host("H2")
		out := make([]bool, 200)
		for i := range out {
			rx := h2.Stats().FramesRx
			built.Host("H1").Port().Send(frame)
			built.Net.Network.Run()
			out[i] = h2.Stats().FramesRx == rx
		}
		if got := seededStreams(built.Net); !slices.Equal(got, []string{fmt.Sprintf("link%d/0", slices.Index(built.Network.Links(), l))}) {
			t.Fatalf("shards=%d: seeded %v, want only the lossy direction", shards, got)
		}
		return out
	}
	one, two := lost(1), lost(2)
	if !slices.Contains(one, true) {
		t.Fatal("a 0.3 loss rate lost none of 200 frames")
	}
	if !slices.Equal(one, two) {
		t.Fatalf("loss pattern differs between shards 1 and 2:\n%v\n%v", one, two)
	}
}
