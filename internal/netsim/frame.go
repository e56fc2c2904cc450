package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/layers"
)

// Frame is a pooled, reference-counted frame buffer: the unit of the
// zero-allocation dataplane. A frame is created once at its origin (the
// only copy it ever suffers), its FrameView is decoded once, and from
// then on the same buffer is handed from link to node to link by
// reference — a frame traversing N bridges is parsed once and copied
// zero times.
//
// Ownership contract (DESIGN.md §3):
//
//   - Node.HandleFrame borrows the frame: it is valid only until the
//     method returns. Forwarding it with Port.SendFrame during the call
//     is always safe (the link takes its own reference).
//   - A node that keeps the frame past HandleFrame — buffering it for
//     path repair, queueing it for later — must Retain it and Release
//     it exactly once when done.
//   - Payload slices handed to host callbacks (UDP datagrams excepted,
//     which are copied) alias the buffer and follow the same rule:
//     valid during the callback only.
//
// Violating the contract does not corrupt the simulator, but a released
// buffer is recycled for a later frame, so stale reads observe that
// frame's bytes.
type Frame struct {
	refs int32
	id   uint64 // origination identity, fresh per NewFrame (not per buffer)
	live *int64 // owning network's live-frame counter (nil for bare frames)
	data []byte // aliases buf for wire-sized frames
	view layers.FrameView
	buf  [layers.MaxFrameLen]byte
}

// framePool recycles Frame objects (struct + inline buffer together).
// The simulation is single-goroutined, but sync.Pool keeps the arena
// GC-aware for free.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// frameSeq issues frame identities. A frame keeps its id across the whole
// zero-copy forwarding chain (every hop and every flood egress shares the
// one buffer), so the id is what lets a network-wide observer correlate
// tap events into per-frame traces — the hop-trace hook the scenario
// engine's loop-freedom checker is built on. Buffer recycling does not
// reuse ids: a recycled Frame gets a fresh one at NewFrame.
var frameSeq atomic.Uint64

// frameLive counts frames created and not yet finally released. The
// balance is the pool get/put instrumentation behind LiveFrames; atomic so
// the counter stays exact under `go test -race` even though the simulation
// itself is single-goroutined.
var frameLive atomic.Int64

// LiveFrames returns the number of pooled frames currently held somewhere
// (in flight, buffered for repair, or leaked). Tests snapshot it before a
// run and assert the delta returns to zero once the simulation drains — a
// nonzero delta after a full drain is a refcount leak.
func LiveFrames() int64 { return frameLive.Load() }

// NewFrame copies b into a pooled frame and decodes its view. The caller
// owns the returned reference and must Release it (sending is not
// releasing: Port.SendFrame takes its own reference). Frames originated
// through a Network (Port.Send, Network.NewFrame) are additionally counted
// against that network, so concurrent simulations can each balance their
// own refcounts.
func NewFrame(b []byte) *Frame { return newFrame(b, nil) }

func newFrame(b []byte, live *int64) *Frame {
	f := framePool.Get().(*Frame)
	f.refs = 1
	f.id = frameSeq.Add(1)
	f.live = live
	frameLive.Add(1)
	if live != nil {
		*live++
	}
	if len(b) <= len(f.buf) {
		f.data = f.buf[:copy(f.buf[:], b)]
	} else {
		// Oversized frames cannot happen through the layers serializer
		// (it enforces MaxFrameLen) but raw Send callers are unchecked;
		// give them an unpooled buffer rather than a panic.
		f.data = append([]byte(nil), b...)
	}
	f.view.Decode(f.data)
	return f
}

// clone duplicates the frame into a fresh pooled buffer that keeps the
// same origination identity and an already-decoded view. This is the one
// copy a frame suffers when it crosses a shard boundary: reference counts
// are shard-local (non-atomic), so the sending shard keeps its buffer and
// the destination shard receives its own — the clone's single reference is
// owned by the in-flight delivery event (DESIGN.md §8).
func (f *Frame) clone() *Frame {
	nf := framePool.Get().(*Frame)
	nf.refs = 1
	nf.id = f.id
	nf.live = f.live
	frameLive.Add(1)
	if nf.live != nil {
		*nf.live++
	}
	if len(f.data) <= len(nf.buf) {
		nf.data = nf.buf[:copy(nf.buf[:], f.data)]
	} else {
		nf.data = append([]byte(nil), f.data...)
	}
	nf.view = f.view // flat struct: safe to copy wholesale
	return nf
}

// Bytes returns the frame contents. The slice is valid only while the
// caller holds a reference; do not mutate it.
func (f *Frame) Bytes() []byte { return f.data }

// ID returns the frame's origination identity: unique per NewFrame and
// stable across the zero-copy forwarding chain, so two tap events with the
// same id observed the same originated frame (or flood copies of it).
func (f *Frame) ID() uint64 { return f.id }

// Len returns the frame length in bytes.
func (f *Frame) Len() int { return len(f.data) }

// View returns the frame's decoded view (parsed once, at NewFrame).
func (f *Frame) View() *layers.FrameView { return &f.view }

// Retain takes an additional reference and returns f for chaining.
func (f *Frame) Retain() *Frame {
	if f.refs <= 0 {
		panic("netsim: Retain on a released frame")
	}
	f.refs++
	return f
}

// Release drops one reference; the last release recycles the buffer.
func (f *Frame) Release() {
	f.refs--
	switch {
	case f.refs > 0:
	case f.refs == 0:
		f.data = nil
		frameLive.Add(-1)
		if f.live != nil {
			*f.live--
			f.live = nil
		}
		framePool.Put(f)
	default:
		panic(fmt.Sprintf("netsim: frame over-released (refs=%d)", f.refs))
	}
}

// Refs returns the current reference count (tests and leak checks).
func (f *Frame) Refs() int32 { return f.refs }
