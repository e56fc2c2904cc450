package core

import (
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// proxyCache is the in-switch ARP Proxy of §2.2 (after EtherProxy [5]):
// edge bridges snoop ARP traffic, and when a broadcast request arrives for
// a binding they already know — with a live path to the owner — they
// convert the broadcast into a unicast request forwarded along that path.
// The owner still answers (so both hosts' caches stay consistent and the
// path entries refresh end to end), but the network-wide flood is
// suppressed.
type proxyCache struct {
	timeout time.Duration
	ip2mac  map[layers.Addr4]proxyEntry
	// nextSweep is when learn next walks the whole map to drop expired
	// bindings. Lookups already evict lazily, but a binding that is never
	// looked up again (a host that went quiet, a station that moved away)
	// used to stay resident forever; on a long-running fabric the map only
	// ever grew. One full sweep per timeout period bounds the map to the
	// bindings snooped inside the last two timeout windows at O(1)
	// amortized cost per learn.
	nextSweep time.Duration
}

type proxyEntry struct {
	mac     layers.MAC
	expires time.Duration
}

func newProxyCache(timeout time.Duration) *proxyCache {
	if timeout <= 0 {
		panic("core: proxy timeout must be positive")
	}
	return &proxyCache{timeout: timeout, ip2mac: make(map[layers.Addr4]proxyEntry)}
}

// learn records a sender binding, sweeping expired bindings out of the
// map once per timeout period so quiet hosts' entries do not accumulate.
func (c *proxyCache) learn(ip layers.Addr4, mac layers.MAC, now time.Duration) {
	if ip.IsZero() || mac.IsZero() || mac.IsMulticast() {
		return
	}
	if now >= c.nextSweep {
		c.sweep(now)
		c.nextSweep = now + c.timeout
	}
	c.ip2mac[ip] = proxyEntry{mac: mac, expires: now + c.timeout}
}

// sweep drops every expired binding. Deletion order does not matter (the
// expired set is a pure function of now), so iterating the map directly is
// deterministic in effect even though Go randomizes its order.
func (c *proxyCache) sweep(now time.Duration) {
	for ip, e := range c.ip2mac {
		if e.expires <= now {
			delete(c.ip2mac, ip)
		}
	}
}

// SweepProxy eagerly drops every expired proxy binding at now. The
// amortized sweep in learn only runs while traffic arrives; a long-running
// fabric that quiesces between sessions calls this at drain points so a
// session ends with no corpses resident. No-op when the proxy is disabled.
func (b *Bridge) SweepProxy(now time.Duration) {
	if b.proxy != nil {
		b.proxy.sweep(now)
	}
}

// lookup returns a live binding.
func (c *proxyCache) lookup(ip layers.Addr4, now time.Duration) (layers.MAC, bool) {
	e, ok := c.ip2mac[ip]
	if !ok {
		return layers.MAC{}, false
	}
	if e.expires <= now {
		delete(c.ip2mac, ip)
		return layers.MAC{}, false
	}
	return e.mac, true
}

// ProxySnapshot returns the proxy cache's live IP→MAC bindings at now,
// or nil when the proxy is disabled. The scenario engine's
// proxy-consistency invariant checks every binding against the fabric's
// true ownership after a run quiesces: a stale or poisoned binding would
// silently convert floods into unicasts toward the wrong station.
func (b *Bridge) ProxySnapshot(now time.Duration) map[layers.Addr4]layers.MAC {
	if b.proxy == nil {
		return nil
	}
	out := make(map[layers.Addr4]layers.MAC, len(b.proxy.ip2mac))
	for ip, e := range b.proxy.ip2mac {
		if e.expires > now {
			out[ip] = e.mac
		}
	}
	return out
}

// PoisonProxy deliberately installs a binding in the proxy cache,
// bypassing snooping. It exists for the scenario engine's deliberate-bug
// regression (a poisoned cache must be caught by the proxy-consistency
// invariant) and panics when the proxy is disabled.
func (b *Bridge) PoisonProxy(ip layers.Addr4, mac layers.MAC) {
	if b.proxy == nil {
		panic("core: PoisonProxy on a bridge without the proxy enabled")
	}
	b.proxy.learn(ip, mac, b.Now())
}

// proxyHandleBroadcast intercepts a broadcast ARP Request arriving on an
// edge port. When the target's binding is cached and a live learned path
// entry for it exists, the request is rewritten into a unicast toward the
// target and forwarded on the established path — EtherProxy's
// broadcast-to-unicast conversion. It reports true when the flood was
// suppressed. Conversion (rather than answering locally) keeps the full
// ARP exchange between the end hosts, so the target learns the requester
// and the path entries refresh exactly as with a real exchange.
func (b *Bridge) proxyHandleBroadcast(in *netsim.Port, v *layers.FrameView, now time.Duration) bool {
	arp := v.ARP
	b.proxy.learn(arp.SenderIP, arp.SenderHW, now)
	if arp.Operation != layers.ARPRequest || !b.IsEdge(in) || arp.IsGratuitous() {
		return false
	}
	mac, ok := b.proxy.lookup(arp.TargetIP, now)
	if !ok {
		b.stats.ProxyMisses++
		return false
	}
	e, ok := b.hosts.Get(mac, now)
	if !ok || e.State != StateLearned || e.Port == in {
		b.stats.ProxyMisses++
		return false
	}
	unicast, err := layers.Serialize(
		&layers.Ethernet{Dst: mac, Src: arp.SenderHW, EtherType: layers.EtherTypeARP},
		&arp,
	)
	if err != nil {
		panic("core: serialize proxied ARP request: " + err.Error())
	}
	b.stats.ProxyConverted++
	// Hand the rewritten frame to the normal unicast dataplane as if it
	// had arrived this way: the source entry refreshes and the frame
	// follows the learned path to the target.
	uf := b.Net().NewFrame(unicast) // net-scoped: visible to the frame-drain balance
	b.handleUnicast(in, uf, uf.View())
	uf.Release()
	return true
}
