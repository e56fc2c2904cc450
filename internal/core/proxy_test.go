package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
)

// TestProxyCacheSweepsExpired is the unit-level half of the unbounded-
// growth regression: bindings learned in one timeout window must leave the
// map once a later learn arrives after they expired, without anyone ever
// looking them up again.
func TestProxyCacheSweepsExpired(t *testing.T) {
	const timeout = 50 * time.Millisecond
	c := newProxyCache(timeout)
	mac := layers.HostMAC(1)

	// Fill several whole windows with one-shot bindings, never looked up.
	now := time.Duration(0)
	for win := 0; win < 6; win++ {
		for i := 0; i < 100; i++ {
			c.learn(layers.HostIP(win*100+i+1), mac, now)
			now += timeout / 100
		}
	}
	// The map may hold at most the bindings of the last two windows (the
	// sweep fires once per timeout period); six windows' worth resident
	// means expired entries are accumulating.
	if len(c.ip2mac) > 250 {
		t.Fatalf("proxy cache holds %d bindings; expired entries are never evicted", len(c.ip2mac))
	}
	// And the live tail must still be resident.
	if _, ok := c.lookup(layers.HostIP(600), now); !ok {
		t.Fatal("freshest binding was swept")
	}
}

// TestProxyCacheBoundedAcrossTimeouts drives a real proxy-enabled fabric
// past several proxy timeouts: a set of hosts each speaks once, then goes
// quiet while one chatty host keeps the edge bridge's learn path hot. The
// quiet hosts' bindings must leave the cache once expired — before the
// sweep, the ip2mac map only ever grew for the lifetime of the fabric.
func TestProxyCacheBoundedAcrossTimeouts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Proxy = true
	net := netsim.NewNetwork(1)
	a := New(net, "A", 1, cfg)

	chatty := newHost("S", 1)
	net.Connect(chatty, a, link(5*time.Microsecond))
	const quiet = 8
	others := make([]*host, quiet)
	for i := range others {
		others[i] = newHost(fmt.Sprintf("Q%d", i+2), i+2)
		net.Connect(others[i], a, link(5*time.Microsecond))
	}
	a.Start()
	net.RunFor(time.Millisecond)

	// Window 0: every quiet host announces itself once.
	for _, h := range others {
		h := h
		net.Engine.At(net.Now(), func() { h.sendARPRequest(chatty.ip) })
	}
	net.RunFor(10 * time.Millisecond)
	if got := len(a.proxy.ip2mac); got < quiet {
		t.Fatalf("cache seeded with %d bindings, want >= %d", got, quiet)
	}

	// Several timeout windows of nothing but the chatty host: its periodic
	// requests keep learn() firing, which must sweep the stale bindings.
	for i := 0; i < 20; i++ {
		net.Engine.At(net.Now(), func() { chatty.sendARPRequest(others[0].ip) })
		net.RunFor(ProxyTimeout * 2 / 5)
	}

	// Resident set: the chatty host, its target, and nothing stale.
	if got := len(a.proxy.ip2mac); got > 3 {
		t.Fatalf("cache still holds %d bindings after %v of quiet; expired entries never evicted",
			got, net.Now())
	}
}
