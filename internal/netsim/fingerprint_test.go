package netsim

import (
	"hash/fnv"
	"testing"
	"time"
)

// TestFingerprintCachedNameHashMatchesStringPath folds one fixed event
// sequence twice: through Observe (port names folded as the hash cached
// at cabling) and through the construction the digest was defined by —
// FNV-1a of From.String() and To.String() via hash/fnv, per event. The
// committed goldens depend on the two being the same number.
func TestFingerprintCachedNameHashMatchesStringPath(t *testing.T) {
	net := NewNetwork(1)
	hub := newTestNode("bridge-with-a-long-name")
	var ports []*Port
	for _, name := range []string{"a", "H12", "é"} {
		l := net.Connect(hub, newTestNode(name), gigabit(0))
		ports = append(ports, l.A(), l.B())
	}
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

	got, ref := NewTapFingerprint(), NewTapFingerprint()
	stringHash := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	for _, ev := range events {
		got.Observe(ev)
		ref.fold(uint64(ev.At), uint64(ev.Kind), uint64(ref.NormID(ev.FrameID)), uint64(len(ev.Frame)))
		ref.fold(stringHash(ev.From.String()))
		ref.fold(stringHash(ev.To.String()))
	}
	if got.Sum() != ref.Sum() {
		t.Fatalf("cached-hash digest %#016x != string-path digest %#016x", got.Sum(), ref.Sum())
	}
	if got.Events() != uint64(len(events)) {
		t.Fatalf("Events = %d, want %d", got.Events(), len(events))
	}
}
