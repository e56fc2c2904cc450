package scenario

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// TestDiscoveryLocksAMinimalPath holds the paper's central claim to a
// shortest-path oracle: on an idle fabric the first copy of the ARP
// Request to reach each bridge is the one that travelled the
// minimum-latency path, so the chain the discovery locks is a
// minimum-latency path. It runs one ARP-Path discovery on the Figure 1
// fabric and on each Figure 2 profile, walks the locked chain back from
// the destination's edge bridge, and costs every hop in the request's
// direction as the link's serialization of the request's wire size plus
// its propagation delay. The chain's cost must equal Dijkstra's over the
// same per-direction costs; an exact tie with another path is accepted.
func TestDiscoveryLocksAMinimalPath(t *testing.T) {
	for _, c := range []struct {
		shape    topo.TopologySpec
		src, dst string
	}{
		{topo.TopologySpec{Family: "figure1"}, "S", "D"},
		{topo.TopologySpec{Family: "figure2", Profile: string(topo.ProfileUniform)}, "A", "B"},
		{topo.TopologySpec{Family: "figure2", Profile: string(topo.ProfileSlowDiagonal)}, "A", "B"},
		{topo.TopologySpec{Family: "figure2", Profile: string(topo.ProfileAsymmetric)}, "A", "B"},
	} {
		t.Run(strings.Trim(c.shape.Family+"/"+c.shape.Profile, "/"), func(t *testing.T) {
			built, err := topo.Build(topo.DefaultOptions(topo.ARPPath, 1), c.shape)
			if err != nil {
				t.Fatal(err)
			}
			chk := NewChecker(built)
			src, dst := built.Host(c.src), built.Host(c.dst)
			request := 0 // the ARP Request's frame length, as src sends it
			built.Tap(func(ev netsim.TapEvent) {
				if ev.Kind == netsim.TapSend && ev.From.Node() == netsim.Node(src) &&
					layers.FrameDst(ev.Frame).IsBroadcast() && layers.FrameEtherType(ev.Frame) == layers.EtherTypeARP {
					request = len(ev.Frame)
				}
			})
			built.Engine.At(built.Now(), func() { src.Resolve(dst.IP(), func(layers.MAC, error) {}) })
			built.RunFor(50 * time.Millisecond)
			if request == 0 {
				t.Fatal("no ARP Request was sent")
			}

			// The chain toward src, from dst's edge bridge, reversed: the
			// path the winning Request copy took.
			chain, ok := chk.walkTo(dst.Port().Peer().Node().Name(), dst.MAC(), src.MAC(), src.Name())
			if !ok {
				t.Fatalf("no locked chain from %s's edge toward %s: %v", dst.Name(), src.Name(), chain)
			}
			slices.Reverse(chain)
			path := slices.Concat([]string{src.Name()}, chain, []string{dst.Name()})

			// Per-direction hop costs over every link.
			cost := map[[2]string]time.Duration{}
			for _, l := range built.Network.Links() {
				cfg := l.Config()
				d := time.Duration(layers.WireBytes(request))*8*time.Second/time.Duration(cfg.Rate) + cfg.Delay
				for _, p := range []*netsim.Port{l.A(), l.B()} {
					cost[[2]string{p.Node().Name(), p.Peer().Node().Name()}] = d
				}
			}
			var locked time.Duration
			for i := 1; i < len(path); i++ {
				d, ok := cost[[2]string{path[i-1], path[i]}]
				if !ok {
					t.Fatalf("locked path %v: no link %s→%s", path, path[i-1], path[i])
				}
				locked += d
			}
			if best := dijkstra(cost, src.Name(), dst.Name()); locked != best {
				t.Errorf("locked path %s costs %v; the minimum is %v", strings.Join(path, "→"), locked, best)
			}
		})
	}
}

// dijkstra is the least total cost from src to dst over the directed
// hop costs.
func dijkstra(cost map[[2]string]time.Duration, src, dst string) time.Duration {
	dist := map[string]time.Duration{src: 0}
	done := map[string]bool{}
	for {
		u, best := "", time.Duration(math.MaxInt64)
		for n, d := range dist {
			if !done[n] && (d < best || d == best && n < u) {
				u, best = n, d
			}
		}
		if u == "" || u == dst {
			return best
		}
		done[u] = true
		for hop, d := range cost {
			if hop[0] == u {
				if old, seen := dist[hop[1]]; !seen || best+d < old {
					dist[hop[1]] = best + d
				}
			}
		}
	}
}
