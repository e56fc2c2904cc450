package bridge

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// repairTick is the repair-timeout wheel's granularity. Repair timers are
// almost always canceled (the PathReply wins); the wheel makes arm/cancel
// allocation-free at the cost of firing up to one tick late.
const repairTick = time.Millisecond

// parked is one outstanding repair.
type parked struct {
	nonce    uint32
	buffered []*netsim.Frame
	timer    sim.WheelTimer
}

// Repairs is the §2.1.4 repair queue: a unicast that misses the table is
// parked under the key whose path is missing while a PathRequest re-runs
// the discovery race, and leaves along the confirmed path when the reply
// arrives — or is dropped when the timeout, the per-key cap or a restart
// gets there first. ARP-Path keys it by destination, Flow-Path by directed
// pair; which control frames a fresh repair sends is the caller's business.
// Parked frames are retained, not copied (the netsim ownership contract);
// every Retain is paired with a Release here.
type Repairs[K comparable] struct {
	c       *Chassis
	timeout time.Duration
	limit   int
	dropped *uint64 // the owner's RepairDropped counter
	pending map[K]*parked
	wheel   *sim.Wheel
}

// NewRepairs builds the queue of the bridge on chassis c: a repair
// unanswered after timeout drops its frames, at most limit frames park per
// key, and every frame dropped (overflow, timeout, Abandon) counts into
// *dropped.
func NewRepairs[K comparable](c *Chassis, timeout time.Duration, limit int, dropped *uint64) *Repairs[K] {
	return &Repairs[K]{c: c, timeout: timeout, limit: limit, dropped: dropped, pending: make(map[K]*parked)}
}

// Len returns the number of outstanding repairs.
func (r *Repairs[K]) Len() int { return len(r.pending) }

// Park buffers f under key and returns the repair's nonce and whether this
// call opened the repair — the caller then owes the control exchange; later
// misses join the buffer under the first nonce. A frame that finds the
// buffer full is counted dropped and not retained.
//
//fabric:hotpath
func (r *Repairs[K]) Park(key K, f *netsim.Frame) (nonce uint32, fresh bool) {
	p, pending := r.pending[key]
	if !pending {
		p = r.open(key)
	}
	if len(p.buffered) < r.limit {
		p.buffered = append(p.buffered, f.Retain())
	} else {
		*r.dropped++
	}
	return p.nonce, !pending
}

// open starts the repair for key. The order is part of the determinism
// contract: the nonce is drawn (from the bridge's own, shard-independent
// stream) before the timer is armed, and the timer before the caller sends
// anything — the wheel's first arm schedules a tick under the bridge's
// Proc. The wheel is created on first use: that Proc only resolves once the
// builder has registered the bridge and partitioning bound it to a shard.
func (r *Repairs[K]) open(key K) *parked {
	p := &parked{nonce: r.c.Stream().Rand().Uint32()}
	r.pending[key] = p
	if r.wheel == nil {
		r.wheel = sim.NewWheelOn(r.c.Sched(), repairTick)
	}
	p.timer = r.wheel.After(r.timeout, func() {
		delete(r.pending, key)
		r.drop(p)
	})
	return p
}

// drop releases every frame parked in p, counting them dropped.
func (r *Repairs[K]) drop(p *parked) int {
	n := len(p.buffered)
	*r.dropped += uint64(n)
	for _, f := range p.buffered {
		f.Release()
	}
	p.buffered = nil
	return n
}

// Release completes key's repair now that a confirming reply has shown the
// path leaves via out: the parked frames are sent in arrival order. It
// returns how many; no pending repair (timed out, already released) is 0.
//
//fabric:hotpath
func (r *Repairs[K]) Release(key K, out *netsim.Port) int {
	p, ok := r.pending[key]
	if !ok {
		return 0
	}
	delete(r.pending, key)
	r.wheel.Stop(p.timer)
	for _, f := range p.buffered {
		out.SendFrame(f)
		f.Release()
	}
	n := len(p.buffered)
	p.buffered = nil
	return n
}

// Abandon drops every outstanding repair (a bridge restart: the refcounts
// must balance even across a crash) and returns the frames dropped.
func (r *Repairs[K]) Abandon() int {
	n := 0
	for _, p := range r.pending {
		r.wheel.Stop(p.timer)
		n += r.drop(p)
	}
	clear(r.pending)
	return n
}
