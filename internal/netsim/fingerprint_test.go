package netsim

import (
	"hash/fnv"
	"testing"
	"time"
)

// refFingerprint is the digest as it was defined: FNV-1a one byte at a
// time over eight little-endian bytes per word, frame identities numbered
// by a plain map in first-seen order. It is the oracle for TapFingerprint
// and deliberately shares none of its code — no word fold, no power
// table, no memo, no counter.
type refFingerprint struct {
	fp  uint64
	ids map[uint64]uint32
}

func (r *refFingerprint) normID(id uint64) uint32 {
	if r.ids == nil {
		r.ids = make(map[uint64]uint32)
	}
	if n, ok := r.ids[id]; ok {
		return n
	}
	n := uint32(len(r.ids)) + 1
	r.ids[id] = n
	return n
}

func (r *refFingerprint) fold(vs ...uint64) {
	h := r.fp
	if h == 0 {
		h = 14695981039346656037
	}
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	r.fp = h
}

func (r *refFingerprint) observe(ev TapEvent) {
	r.fold(uint64(ev.At), uint64(ev.Kind), uint64(r.normID(ev.FrameID)), uint64(len(ev.Frame)))
	r.fold(ev.From.nameHash)
	r.fold(ev.To.nameHash)
}

// testPorts cables a hub to a few nodes and returns every port.
func testPorts(names ...string) []*Port {
	net := NewNetwork(1)
	hub := newTestNode("bridge-with-a-long-name")
	var ports []*Port
	for _, name := range names {
		l := net.Connect(hub, newTestNode(name), gigabit(0))
		ports = append(ports, l.A(), l.B())
	}
	return ports
}

// TestFingerprintCachedNameHashMatchesStringPath folds one fixed event
// sequence twice: through Observe (port names folded as the hash cached
// at cabling) and through the construction the digest was defined by —
// FNV-1a of From.String() and To.String() via hash/fnv, per event. The
// committed goldens depend on the two being the same number.
func TestFingerprintCachedNameHashMatchesStringPath(t *testing.T) {
	ports := testPorts("a", "H12", "é")
	events := make([]TapEvent, 0, 64)
	for i := 0; i < 64; i++ {
		events = append(events, TapEvent{
			At:      time.Duration(i) * 977 * time.Nanosecond,
			Kind:    TapKind(i % 5),
			From:    ports[i%len(ports)],
			To:      ports[(i*5+1)%len(ports)],
			Frame:   make([]byte, 60+i),
			FrameID: uint64(1000 + i%7),
		})
	}

	got, ref := NewTapFingerprint(), &refFingerprint{}
	stringHash := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	for _, ev := range events {
		got.Observe(ev)
		ref.fold(uint64(ev.At), uint64(ev.Kind), uint64(ref.normID(ev.FrameID)), uint64(len(ev.Frame)))
		ref.fold(stringHash(ev.From.String()))
		ref.fold(stringHash(ev.To.String()))
	}
	if got.Sum() != ref.fp {
		t.Fatalf("cached-hash digest %#016x != string-path digest %#016x", got.Sum(), ref.fp)
	}
	if got.Events() != uint64(len(events)) {
		t.Fatalf("Events = %d, want %d", got.Events(), len(events))
	}
}

// TestFoldWordEdgeWords holds the word fold to the byte loop on the words
// where the zero-byte shortcut changes shape: nothing set, every byte
// boundary, interior zero bytes, everything set.
func TestFoldWordEdgeWords(t *testing.T) {
	words := []uint64{0, 1, 0xff, 0x100, 0xff00, 0x10000, 1<<56 - 1, 1 << 56, 1<<64 - 1, 0x0100000000000001}
	for b := 0; b < 8; b++ {
		for v := uint64(1); v <= 0xff; v++ { // every single-byte-set value
			words = append(words, v<<(8*b))
		}
	}
	for _, h := range []uint64{14695981039346656037, 1, 0xdeadbeefcafef00d} {
		for _, v := range words {
			ref := refFingerprint{fp: h}
			ref.fold(v)
			if got := foldWord(h, v); got != ref.fp {
				t.Fatalf("foldWord(%#x, %#x) = %#x, byte loop gives %#x", h, v, got, ref.fp)
			}
		}
	}
}

// fuzzEvents decodes a byte stream into tap events, four bytes each. The
// identity byte draws from a small alphabet that repeats, includes 0 and
// collides in the direct-mapped memo (multiples of its size apart); a
// 0xff identity byte is a Forget, after which frame identities come from
// a fresh epoch — the call's precondition is that no frame seen before is
// seen again — while identity 0, the one netsim reissues (an origination
// drop carries it), keeps turning up on both sides of every Forget.
func fuzzEvents(data []byte, ports []*Port, each func(ev TapEvent), forget func()) {
	var at time.Duration
	var epoch uint64
	for ; len(data) >= 4; data = data[4:] {
		sel, step, kind, size := data[0], data[1], data[2], data[3]
		if sel == 0xff {
			forget()
			epoch += 1 << 32
			continue
		}
		// 4 memo slots × 8 identities colliding in each; 0 is 0 in every epoch.
		id := uint64(sel%4) + uint64(sel/4%8)*normMemo
		if id != 0 {
			id += epoch
		}
		at += time.Duration(step) << (step % 33) // words of every byte length
		each(TapEvent{
			At:      at,
			Kind:    TapKind(kind % 5),
			From:    ports[int(kind)%len(ports)],
			To:      ports[int(size)%len(ports)],
			Frame:   make([]byte, int(size)*6),
			FrameID: id,
		})
	}
}

// FuzzFingerprintAgreesWithReference drives TapFingerprint and the
// byte-at-a-time reference with the same event stream and requires every
// NormID and the final Sum to agree. The reference never forgets.
func FuzzFingerprintAgreesWithReference(f *testing.F) {
	f.Add([]byte{0, 1, 0, 10, 4, 1, 1, 10, 0, 1, 2, 10, 0xff, 0, 0, 0, 0, 9, 3, 200})
	f.Add([]byte{1, 1, 0, 10, 0, 1, 4, 10, 0xff, 0, 0, 0, 0, 1, 4, 10, 2, 1, 0, 10, 0xff, 0, 0, 0, 1, 1, 0, 10, 0, 1, 2, 10})
	f.Add([]byte{1, 255, 4, 255, 5, 255, 4, 255, 9, 255, 4, 255, 1, 255, 4, 255})
	ports := testPorts("a", "b", "c")
	f.Fuzz(func(t *testing.T, data []byte) {
		got, ref := NewTapFingerprint(), &refFingerprint{}
		n := 0
		fuzzEvents(data, ports, func(ev TapEvent) {
			if g, r := got.NormID(ev.FrameID), ref.normID(ev.FrameID); g != r {
				t.Fatalf("event %d: NormID(%#x) = %d, reference %d", n, ev.FrameID, g, r)
			}
			got.Observe(ev)
			ref.observe(ev)
			n++
		}, got.Forget)
		if got.Sum() != ref.fp || got.Events() != uint64(n) {
			t.Fatalf("Sum %#016x over %d events, reference %#016x over %d", got.Sum(), got.Events(), ref.fp, n)
		}
	})
}

// BenchmarkObserve times one Observe on the two identity shapes a fabric
// produces: a flood (one frame on every port back to back, then the next
// frame) and interleaved unicast flows (64 frames in flight, each seen
// at hop after hop, retired and replaced).
func BenchmarkObserve(b *testing.B) {
	ports := testPorts("a", "b", "c", "d")
	frame := make([]byte, 442)
	run := func(b *testing.B, id func(i int) uint64) {
		fp := NewTapFingerprint()
		ev := TapEvent{Kind: TapSend, Frame: frame}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ev.At += 977 * time.Nanosecond
			ev.From, ev.To = ports[i%len(ports)], ports[(i+1)%len(ports)]
			ev.FrameID = id(i)
			fp.Observe(ev)
		}
	}
	b.Run("flood", func(b *testing.B) { run(b, func(i int) uint64 { return uint64(i / 16) }) })
	b.Run("unicast", func(b *testing.B) {
		run(b, func(i int) uint64 { return uint64(i%64) + 64*uint64(i/(64*19)) })
	})
}
