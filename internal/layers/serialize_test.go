package layers

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSerializeBufferEmpty(t *testing.T) {
	b := NewSerializeBuffer()
	if b.Len() != 0 || len(b.Bytes()) != 0 {
		t.Fatalf("new buffer not empty: len=%d", b.Len())
	}
}

func TestSerializeBufferGopacketExample(t *testing.T) {
	// Mirrors the documented gopacket SerializeBuffer example.
	b := NewSerializeBuffer()
	copy(b.PrependBytes(3), []byte{1, 2, 3})
	copy(b.AppendBytes(2), []byte{4, 5})
	copy(b.PrependBytes(1), []byte{0})
	copy(b.AppendBytes(3), []byte{6, 7, 8})
	want := []byte{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("Bytes() = %v, want %v", b.Bytes(), want)
	}
	b.Clear()
	if b.Len() != 0 {
		t.Fatalf("Len after Clear = %d", b.Len())
	}
	copy(b.PrependBytes(2), []byte{9, 9})
	if !bytes.Equal(b.Bytes(), []byte{9, 9}) {
		t.Fatalf("Bytes() after Clear = %v", b.Bytes())
	}
}

func TestSerializeBufferHeadroomGrowth(t *testing.T) {
	b := NewSerializeBufferExpectedSize(2, 2)
	copy(b.PrependBytes(128), bytes.Repeat([]byte{0xAA}, 128))
	copy(b.PrependBytes(128), bytes.Repeat([]byte{0xBB}, 128))
	got := b.Bytes()
	if len(got) != 256 {
		t.Fatalf("len = %d, want 256", len(got))
	}
	if got[0] != 0xBB || got[255] != 0xAA {
		t.Fatalf("growth scrambled contents: %x ... %x", got[0], got[255])
	}
}

// TestSerializeBufferReuseStopsGrowing: a datagram's payload is prepended
// first; when it fits the default headroom but leaves too little for the
// headers, the buffer grows at the front — and once a reused buffer has
// grown for one such packet, the next of the same shape must fit. (Growth
// used to restore only the new headroom on Clear, not the bytes already
// prepended into the old one, so every datagram of 23 to 64 payload bytes
// reallocated, forever.)
func TestSerializeBufferReuseStopsGrowing(t *testing.T) {
	for _, size := range []int{defaultHeadroom - 8, defaultHeadroom, 8 * defaultHeadroom} {
		b := NewSerializeBuffer()
		payload := bytes.Repeat([]byte{0x5A}, size)
		packet := func() {
			b.Clear()
			copy(b.PrependBytes(len(payload)), payload)
			copy(b.PrependBytes(8), "udp-hdr.")
			copy(b.PrependBytes(20), "ipv4-header-20-bytes")
			copy(b.PrependBytes(14), "ethernet-hdr14")
		}
		packet()
		want := append([]byte(nil), b.Bytes()...)
		if avg := testing.AllocsPerRun(100, packet); avg != 0 {
			t.Fatalf("%d-byte payload: a reused buffer allocates %.1f times per same-shape packet", size, avg)
		}
		if !bytes.Equal(b.Bytes(), want) || len(want) != size+8+20+14 {
			t.Fatalf("%d-byte payload: reuse changed the packet: %d bytes, want %d", size, len(b.Bytes()), len(want))
		}
	}
}

func TestSerializeBufferClearAfterFullConsumption(t *testing.T) {
	b := NewSerializeBufferExpectedSize(4, 0)
	b.PrependBytes(4) // consume all headroom
	b.Clear()
	copy(b.PrependBytes(3), []byte{1, 2, 3})
	if !bytes.Equal(b.Bytes(), []byte{1, 2, 3}) {
		t.Fatalf("Bytes() = %v", b.Bytes())
	}
}

func TestSerializeBufferNegativePanics(t *testing.T) {
	b := NewSerializeBuffer()
	for _, f := range []func(){
		func() { b.PrependBytes(-1) },
		func() { b.AppendBytes(-1) },
		func() { NewSerializeBufferExpectedSize(-1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("negative size did not panic")
				}
			}()
			f()
		}()
	}
}

// Property: any interleaving of prepends and appends yields the bytes in
// the obvious order (prepends reversed, then appends).
func TestQuickSerializeBufferInterleaving(t *testing.T) {
	f := func(ops []int16) bool {
		b := NewSerializeBuffer()
		var front, back []byte
		next := byte(1)
		for _, op := range ops {
			n := int(op%32) + 1
			if n < 0 {
				n = -n
			}
			chunk := bytes.Repeat([]byte{next}, n)
			next++
			if op%2 == 0 {
				copy(b.PrependBytes(n), chunk)
				front = append(chunk, front...)
			} else {
				copy(b.AppendBytes(n), chunk)
				back = append(back, chunk...)
			}
		}
		return bytes.Equal(b.Bytes(), append(front, back...))
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSerializeBufferReuse(b *testing.B) {
	buf := NewSerializeBuffer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Clear()
		buf.PrependBytes(20)
		buf.AppendBytes(1000)
		buf.PrependBytes(14)
	}
}
