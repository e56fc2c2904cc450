package host

import (
	"errors"
	"time"

	"repro/internal/layers"
	"repro/internal/sim"
)

// ErrARPTimeout is reported to resolution callbacks when every ARP retry
// went unanswered.
var ErrARPTimeout = errors.New("host: ARP resolution timed out")

// ARPConfig tunes the resolver.
type ARPConfig struct {
	// CacheTimeout is the lifetime of a learned binding.
	CacheTimeout time.Duration
	// RetryInterval separates retransmitted requests.
	RetryInterval time.Duration
	// Retries is the number of requests sent before giving up.
	Retries int
	// PendingLimit bounds callbacks queued per unresolved address.
	PendingLimit int
}

// DefaultARPConfig mirrors a typical OS resolver.
func DefaultARPConfig() ARPConfig {
	return ARPConfig{
		CacheTimeout:  60 * time.Second,
		RetryInterval: time.Second,
		Retries:       3,
		PendingLimit:  128,
	}
}

type arpEntry struct {
	mac     layers.MAC
	expires time.Duration
}

type arpPending struct {
	callbacks []func(layers.MAC, error)
	attempts  int
	timer     *sim.Timer
}

// arpCache is the host's ARP cache and resolution engine, stored inside
// its Host.
type arpCache struct {
	h       *Host
	cfg     ARPConfig
	entries map[layers.Addr4]arpEntry
	pending map[layers.Addr4]*arpPending
}

// init builds the cache of host h in place.
func (c *arpCache) init(h *Host, cfg ARPConfig) {
	*c = arpCache{
		h:       h,
		cfg:     cfg,
		entries: make(map[layers.Addr4]arpEntry),
		pending: make(map[layers.Addr4]*arpPending),
	}
}

// lookup returns a live cached binding.
func (c *arpCache) lookup(ip layers.Addr4) (layers.MAC, bool) {
	e, ok := c.entries[ip]
	if !ok || e.expires <= c.h.now() {
		delete(c.entries, ip)
		return layers.MAC{}, false
	}
	return e.mac, true
}

// learn stores a binding and completes any pending resolutions for it.
func (c *arpCache) learn(ip layers.Addr4, mac layers.MAC) {
	if ip.IsZero() || mac.IsZero() || mac.IsMulticast() {
		return
	}
	c.entries[ip] = arpEntry{mac: mac, expires: c.h.now() + c.cfg.CacheTimeout}
	if p, ok := c.pending[ip]; ok {
		delete(c.pending, ip)
		p.timer.Stop()
		c.h.stats.ARPResolves++
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
		if len(p.callbacks) >= c.cfg.PendingLimit {
			c.h.stats.DroppedPendingARP++
			return
		}
		p.callbacks = append(p.callbacks, cb)
		return
	}
	p := &arpPending{callbacks: []func(layers.MAC, error){cb}}
	c.pending[dst] = p
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
	p.timer = c.h.After(c.cfg.RetryInterval, func() {
		if p.attempts < c.cfg.Retries {
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
	c.h.stats.ARPRepliesTx++
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
func (v *ARPView) Flush() { clear(v.c.entries) }

// Len returns the number of cached bindings (including unswept expired
// ones).
func (v *ARPView) Len() int { return len(v.c.entries) }
