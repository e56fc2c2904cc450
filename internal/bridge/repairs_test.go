package bridge

import (
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// repairRig is one bridge with a sink behind port 0 and a repair queue
// counting drops into dropped. Frames are parked the way a protocol does
// it: borrowed for the call, so the queue's Retain is the only reference
// once park returns.
type repairRig struct {
	net     *netsim.Network
	br      *stubBridge
	out     *sink
	q       *Repairs[int]
	dropped uint64
	base    int64
}

const rigTimeout = 50 * time.Millisecond

func newRepairRig(limit int) *repairRig {
	r := &repairRig{net: netsim.NewNetwork(1), out: &sink{name: "out"}}
	r.br = newStubBridge(r.net, "br", 1, false)
	r.net.Connect(r.br, r.out, cfg())
	r.q = NewRepairs[int](&r.br.Chassis, rigTimeout, limit, &r.dropped)
	r.base = r.net.LiveFrames()
	return r
}

// park parks one frame whose payload byte is tag.
func (r *repairRig) park(key int, tag byte) (uint32, bool) {
	b, _ := layers.Serialize(
		&layers.Ethernet{Dst: layers.HostMAC(2), Src: layers.HostMAC(1), EtherType: layers.EtherTypeIPv4},
		layers.Payload([]byte{tag}),
	)
	f := r.net.NewFrame(b)
	defer f.Release()
	return r.q.Park(key, f)
}

func (r *repairRig) held() int64 { return r.net.LiveFrames() - r.base }

func TestRepairsTimeoutDropsEveryBufferedFrame(t *testing.T) {
	r := newRepairRig(8)
	for tag := byte(0); tag < 3; tag++ {
		r.park(1, tag)
	}
	if r.q.Len() != 1 || r.held() != 3 || r.dropped != 0 {
		t.Fatalf("parked: Len %d, held %d, dropped %d; want 1, 3, 0", r.q.Len(), r.held(), r.dropped)
	}
	r.net.RunFor(rigTimeout + 2*repairTick)
	if r.q.Len() != 0 || r.held() != 0 || r.dropped != 3 {
		t.Fatalf("after timeout: Len %d, held %d, dropped %d; want 0, 0, 3", r.q.Len(), r.held(), r.dropped)
	}
	// The reply that comes too late finds nothing to release.
	if n := r.q.Release(1, r.br.Port(0)); n != 0 {
		t.Fatalf("Release after timeout sent %d frames", n)
	}
	r.net.Run()
	if len(r.out.got) != 0 {
		t.Fatalf("%d timed-out frames reached the wire", len(r.out.got))
	}
}

func TestRepairsOverflowRetainsNothingAndReleaseKeepsOrder(t *testing.T) {
	r := newRepairRig(2)
	nonce, fresh := r.park(1, 0)
	if !fresh {
		t.Fatal("first Park on a key was not fresh")
	}
	for tag := byte(1); tag < 5; tag++ {
		if n, fresh := r.park(1, tag); fresh || n != nonce {
			t.Fatalf("Park %d on a pending key: (nonce %#x, fresh %v), want (%#x, false)", tag, n, fresh, nonce)
		}
	}
	if r.held() != 2 || r.dropped != 3 {
		t.Fatalf("past the cap: held %d, dropped %d; want 2, 3", r.held(), r.dropped)
	}
	if n, fresh := r.park(2, 9); !fresh || n == nonce {
		t.Fatalf("another key: (nonce %#x, fresh %v), want a fresh repair with its own nonce", n, fresh)
	}
	if n := r.q.Release(1, r.br.Port(0)); n != 2 {
		t.Fatalf("Release sent %d frames, want 2", n)
	}
	if n := r.q.Release(1, r.br.Port(0)); n != 0 {
		t.Fatalf("second Release sent %d frames", n)
	}
	// Run well past key 1's deadline: its canceled timer must not fire
	// into the queue, while key 2's does.
	r.net.RunFor(rigTimeout + 2*repairTick)
	r.net.Run()
	if r.dropped != 4 || r.q.Len() != 0 || r.held() != 0 {
		t.Fatalf("after the deadlines: dropped %d, Len %d, held %d; want 4, 0, 0", r.dropped, r.q.Len(), r.held())
	}
	if len(r.out.got) != 2 {
		t.Fatalf("sink got %d frames, want 2", len(r.out.got))
	}
	for i, b := range r.out.got {
		if tag := b[layers.EthernetHeaderLen]; tag != byte(i) {
			t.Fatalf("released frame %d carries tag %d: buffer order lost", i, tag)
		}
	}
}

func TestRepairsAbandonEmptiesTheQueueWithTimersArmed(t *testing.T) {
	r := newRepairRig(8)
	if n := r.q.Abandon(); n != 0 {
		t.Fatalf("Abandon on a never-used queue dropped %d", n)
	}
	r.park(1, 0)
	r.park(1, 1)
	r.park(2, 2)
	if n := r.q.Abandon(); n != 3 {
		t.Fatalf("Abandon dropped %d frames, want 3", n)
	}
	if r.q.Len() != 0 || r.held() != 0 || r.dropped != 3 {
		t.Fatalf("after Abandon: Len %d, held %d, dropped %d; want 0, 0, 3", r.q.Len(), r.held(), r.dropped)
	}
	// The queue is usable afterwards and the stopped timers stay silent.
	if _, fresh := r.park(1, 3); !fresh {
		t.Fatal("Park after Abandon was not fresh")
	}
	r.net.Run()
	if r.dropped != 4 || r.held() != 0 {
		t.Fatalf("after draining: dropped %d, held %d; want 4, 0", r.dropped, r.held())
	}
}
