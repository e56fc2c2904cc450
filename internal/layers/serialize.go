package layers

// SerializeBuffer collects packet bytes while layers are written
// innermost-first, so headers are prepended in front of the existing
// contents. It is the stdlib-only equivalent of gopacket.SerializeBuffer:
// a slice with spare capacity kept at the front.
//
// The zero value is not ready to use; call NewSerializeBuffer. Buffers are
// reusable via Clear, which (as in gopacket) invalidates slices returned by
// earlier Bytes calls.
type SerializeBuffer struct {
	buf   []byte // backing storage
	start int    // first used byte in buf
	head  int    // headroom high-water mark restored by Clear
}

// defaultHeadroom leaves room for the usual header stack
// (Ethernet+IPv4+transport) without copying.
const defaultHeadroom = 64

// NewSerializeBuffer returns an empty buffer with default headroom.
func NewSerializeBuffer() *SerializeBuffer {
	return NewSerializeBufferExpectedSize(defaultHeadroom, 512)
}

// NewSerializeBufferExpectedSize returns an empty buffer pre-sized for the
// expected number of prepended and appended bytes.
func NewSerializeBufferExpectedSize(prepend, append int) *SerializeBuffer {
	if prepend < 0 || append < 0 {
		panic("layers: negative buffer size hint")
	}
	return &SerializeBuffer{
		buf:   make([]byte, prepend, prepend+append),
		start: prepend,
		head:  prepend,
	}
}

// Bytes returns the serialized contents. The slice is invalidated by the
// next Clear or Prepend/Append call that reallocates.
func (b *SerializeBuffer) Bytes() []byte { return b.buf[b.start:] }

// Len returns the number of serialized bytes.
func (b *SerializeBuffer) Len() int { return len(b.buf) - b.start }

// PrependBytes returns an n-byte slice in front of the current contents.
// The bytes are uninitialized and must be fully overwritten by the caller.
func (b *SerializeBuffer) PrependBytes(n int) []byte {
	if n < 0 {
		panic("layers: negative prepend size")
	}
	if b.start < n {
		// Grow at the front: new headroom is max(2*need, defaultHeadroom).
		head := 2 * n
		if head < defaultHeadroom {
			head = defaultHeadroom
		}
		nb := make([]byte, head+b.Len(), head+len(b.buf))
		copy(nb[head:], b.Bytes())
		// Clear's restore point moves with the contents: what this packet
		// has already prepended stays headroom too, so the next packet of
		// the same shape does not grow again. (A payload is prepended
		// first; one that nearly fills the default headroom used to make
		// every datagram regrow for its headers.)
		b.head = head + b.head - b.start
		b.buf = nb
		b.start = head
	}
	b.start -= n
	return b.buf[b.start : b.start+n]
}

// AppendBytes returns an n-byte slice after the current contents. The bytes
// are uninitialized and must be fully overwritten by the caller.
func (b *SerializeBuffer) AppendBytes(n int) []byte {
	if n < 0 {
		panic("layers: negative append size")
	}
	old := len(b.buf)
	if cap(b.buf) >= old+n {
		b.buf = b.buf[:old+n]
	} else {
		nb := make([]byte, old+n, 2*(old+n))
		copy(nb, b.buf)
		b.buf = nb
	}
	return b.buf[old:]
}

// Clear resets the buffer to empty, restoring headroom for the next packet.
// Previously returned Bytes slices are invalidated. The headroom restored
// is the largest the buffer has ever had, not whatever a previous packet
// left over — a reused buffer reaches a steady state where packets of the
// same shape serialize with no allocation at all.
func (b *SerializeBuffer) Clear() {
	head := b.head
	if head == 0 {
		head = defaultHeadroom
		if cap(b.buf) < head {
			b.buf = make([]byte, head, head+512)
		}
		b.head = head
	}
	b.buf = b.buf[:head]
	b.start = head
}
