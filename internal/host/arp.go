package host

import (
	"encoding/binary"
	"errors"
	"time"

	"repro/internal/layers"
	"repro/internal/sim"
	"repro/internal/tables"
)

// ErrARPTimeout is reported to resolution callbacks when every ARP retry
// went unanswered.
var ErrARPTimeout = errors.New("host: ARP resolution timed out")

// The resolver's settings mirror a typical OS resolver.
const (
	// arpCacheTimeout is the lifetime of a learned binding.
	arpCacheTimeout = 60 * time.Second
	// arpRetryInterval separates retransmitted requests.
	arpRetryInterval = time.Second
	// arpRetries is the number of requests sent before giving up.
	arpRetries = 3
	// arpPendingLimit bounds callbacks queued per unresolved address.
	arpPendingLimit = 128
)

type arpPending struct {
	callbacks []func(layers.MAC, error)
	attempts  int
	timer     *sim.Timer
}

// arpCache is the host's ARP cache and resolution engine, stored inside
// its Host. The bindings live in a probe array shaped like the path
// tables' (internal/tables/index.go): a power-of-two slice of arpCell,
// open-addressed with linear probing from tables.Mix64(ip) and held at
// load ≤ 1/2, so an insert is one hash and, nearly always, one cache line.
// The zero IP marks an empty cell — learn refuses it — and removal shifts
// the rest of the run back over the hole, so expiry leaves no tombstone.
// Nothing reads cell order.
//
// Every host hears every discovery flood and learns its sender, and on a
// large fabric that line is a cache miss per host per flood. So learn only
// appends to fresh, and fold inserts a full batch at once, its probes
// independent and in flight together; every reader of the cells folds
// first, so what is observed is exactly the cache with every learn applied
// in order.
type arpCache struct {
	h       *Host
	cells   []arpCell // nil until the first fold
	n       int
	fresh   []arpCell                    // learns not yet folded, oldest first
	pending map[layers.Addr4]*arpPending // nil until the first miss
}

// arpCell is one slot of the probe array: a binding, or empty while ip is
// zero.
type arpCell struct {
	ip      layers.Addr4
	mac     layers.MAC
	expires time.Duration
}

const (
	// arpFirstCells is the first array's length: room for four bindings.
	arpFirstCells = 8
	// arpBatch is how many learns fold together.
	arpBatch = 16
)

// arpHome returns ip's home cell in an array of mask+1 cells.
func arpHome(ip layers.Addr4, mask uint64) uint64 {
	return tables.Mix64(uint64(binary.BigEndian.Uint32(ip[:]))) & mask
}

// probe returns the cell holding ip or, on a miss, the empty cell that
// ends ip's run — where a learn would place it — and -1 while the array is
// still nil. The empty check comes first, so the zero IP is never found.
func (c *arpCache) probe(ip layers.Addr4) (int, bool) {
	cs := c.cells
	mask := uint64(len(cs) - 1)
	for i := arpHome(ip, mask); i < uint64(len(cs)); i = (i + 1) & mask {
		switch cs[i].ip {
		case layers.Addr4{}:
			return int(i), false
		case ip:
			return int(i), true
		}
	}
	return -1, false
}

// grow doubles the array (or allocates the first one) and rehashes the
// bindings into it.
func (c *arpCache) grow() {
	old := c.cells
	c.cells = make([]arpCell, max(2*len(old), arpFirstCells))
	for _, e := range old {
		if !e.ip.IsZero() {
			i, _ := c.probe(e.ip)
			c.cells[i] = e
		}
	}
}

// remove empties cell hole and closes the gap by backward shift: each
// later binding of the run moves into the hole unless its home lies
// cyclically in (hole, cell] — moving that one would put it before its
// home, where no probe would find it. The run ends at the first empty
// cell, which load ≤ 1/2 guarantees exists.
func (c *arpCache) remove(hole int) {
	cs := c.cells
	mask := uint64(len(cs) - 1)
	h := uint64(hole)
	for j := (h + 1) & mask; !cs[j].ip.IsZero(); j = (j + 1) & mask {
		if home := arpHome(cs[j].ip, mask); (j-home)&mask >= (j-h)&mask {
			cs[h] = cs[j]
			h = j
		}
	}
	cs[h] = arpCell{}
	c.n--
}

// fold inserts the fresh learns into the probe array, in order.
func (c *arpCache) fold() {
	for _, e := range c.fresh {
		i, ok := c.probe(e.ip)
		if !ok {
			if 2*(c.n+1) > len(c.cells) {
				c.grow()
				i, _ = c.probe(e.ip)
			}
			c.n++
		}
		c.cells[i] = e
	}
	c.fresh = c.fresh[:0]
}

// lookup returns a live cached binding, dropping an expired one.
func (c *arpCache) lookup(ip layers.Addr4) (layers.MAC, bool) {
	if len(c.fresh) > 0 {
		c.fold()
	}
	i, ok := c.probe(ip)
	if !ok {
		return layers.MAC{}, false
	}
	if e := &c.cells[i]; e.expires > c.h.now() {
		return e.mac, true
	}
	c.remove(i)
	return layers.MAC{}, false
}

// learn records a binding, applied at the next fold, and completes any
// pending resolutions for it.
func (c *arpCache) learn(ip layers.Addr4, mac layers.MAC) {
	if ip.IsZero() || mac.IsZero() || mac.IsMulticast() {
		return
	}
	if c.fresh == nil {
		c.fresh = make([]arpCell, 0, arpBatch)
	}
	c.fresh = append(c.fresh, arpCell{ip: ip, mac: mac, expires: c.h.now() + arpCacheTimeout})
	if len(c.fresh) == arpBatch {
		c.fold()
	}
	if p, ok := c.pending[ip]; ok {
		delete(c.pending, ip)
		p.timer.Stop()
		for _, cb := range p.callbacks {
			cb(mac, nil)
		}
	}
}

// resolve invokes cb with dst's MAC, now if cached, otherwise after an ARP
// exchange. Callbacks run on the simulation goroutine.
func (c *arpCache) resolve(dst layers.Addr4, cb func(layers.MAC, error)) {
	if mac, ok := c.lookup(dst); ok {
		cb(mac, nil)
		return
	}
	if p, ok := c.pending[dst]; ok {
		if len(p.callbacks) >= arpPendingLimit {
			c.h.stats.DroppedPendingARP++
			return
		}
		p.callbacks = append(p.callbacks, cb)
		return
	}
	p := &arpPending{callbacks: []func(layers.MAC, error){cb}}
	put(&c.pending, dst, p)
	c.transmitRequest(dst, p)
}

// transmitRequest sends one broadcast request and arms the retry timer.
func (c *arpCache) transmitRequest(dst layers.Addr4, p *arpPending) {
	p.attempts++
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: layers.BroadcastMAC, Src: c.h.mac, EtherType: layers.EtherTypeARP},
		&layers.ARP{
			Operation: layers.ARPRequest,
			SenderHW:  c.h.mac, SenderIP: c.h.ip,
			TargetHW: layers.ZeroMAC, TargetIP: dst,
		},
	)
	if err != nil {
		panic("host: serialize ARP request: " + err.Error())
	}
	c.h.stats.ARPRequestsTx++
	c.h.send(frame)
	p.timer = c.h.After(arpRetryInterval, func() {
		if p.attempts < arpRetries {
			c.transmitRequest(dst, p)
			return
		}
		delete(c.pending, dst)
		c.h.stats.ARPFailures++
		for _, cb := range p.callbacks {
			cb(layers.MAC{}, ErrARPTimeout)
		}
	})
}

// handleARP processes a received ARP packet (the frame view's decode):
// learn the sender, answer requests for our address.
func (c *arpCache) handleARP(arp *layers.ARP) {
	// Standard opportunistic learning: any ARP naming the sender updates
	// the cache (this is also how the in-switch proxy's replies land).
	c.learn(arp.SenderIP, arp.SenderHW)
	if arp.Operation != layers.ARPRequest || arp.TargetIP != c.h.ip {
		return
	}
	reply, err := layers.Serialize(
		&layers.Ethernet{Dst: arp.SenderHW, Src: c.h.mac, EtherType: layers.EtherTypeARP},
		&layers.ARP{
			Operation: layers.ARPReply,
			SenderHW:  c.h.mac, SenderIP: c.h.ip,
			TargetHW: arp.SenderHW, TargetIP: arp.SenderIP,
		},
	)
	if err != nil {
		panic("host: serialize ARP reply: " + err.Error())
	}
	c.h.send(reply)
}

// AnnounceLocation broadcasts a gratuitous ARP (sender IP == target IP).
// Real stacks send one when an interface comes up or moves; under
// ARP-Path the flood re-locks the host's position at every bridge, which
// is how a station that moved to another edge port re-establishes its
// paths without any bridge configuration.
func (h *Host) AnnounceLocation() {
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: layers.BroadcastMAC, Src: h.mac, EtherType: layers.EtherTypeARP},
		&layers.ARP{
			Operation: layers.ARPRequest,
			SenderHW:  h.mac, SenderIP: h.ip,
			TargetHW: layers.ZeroMAC, TargetIP: h.ip,
		},
	)
	if err != nil {
		panic("host: serialize gratuitous ARP: " + err.Error())
	}
	h.stats.ARPRequestsTx++
	h.send(frame)
}

// Resolve invokes cb with dst's MAC address, immediately when cached or
// after an ARP exchange. It is the public entry point experiments use to
// time address resolution (and, under ARP-Path, the path discovery that
// rides on it). The callback runs on the simulation goroutine.
func (h *Host) Resolve(dst layers.Addr4, cb func(layers.MAC, error)) {
	h.arp.resolve(dst, cb)
}

// ARPView is the read-only window experiments get onto a host's resolver.
type ARPView struct{ c *arpCache }

// Lookup reports the live cached binding for ip.
func (v *ARPView) Lookup(ip layers.Addr4) (layers.MAC, bool) { return v.c.lookup(ip) }

// Flush drops the whole cache, forcing re-resolution (used by experiments
// to trigger fresh discovery races).
func (v *ARPView) Flush() {
	clear(v.c.cells)
	v.c.n, v.c.fresh = 0, v.c.fresh[:0]
}

// Len returns the number of cached bindings (including unswept expired
// ones).
func (v *ARPView) Len() int {
	v.c.fold()
	return v.c.n
}
