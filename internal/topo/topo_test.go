package topo

import (
	"strings"
	"testing"
	"time"

	"repro/internal/host"
	"repro/internal/layers"
	"repro/internal/stp"
)

func TestFigure1Wiring(t *testing.T) {
	n := Figure1(DefaultOptions(ARPPath, 1))
	if len(n.Bridges) != 5 || len(n.Hosts) != 2 || len(n.Links) != 8 {
		t.Fatalf("bridges=%d hosts=%d links=%d", len(n.Bridges), len(n.Hosts), len(n.Links))
	}
	// S and D can talk after discovery.
	s, d := n.Host("S"), n.Host("D")
	var rtt time.Duration
	n.Engine.At(n.Now(), func() {
		s.Ping(d.IP(), 56, time.Second, func(r host.PingResult) { rtt = r.RTT })
	})
	n.RunFor(2 * time.Second)
	if rtt <= 0 {
		t.Fatal("ping across Figure 1 failed")
	}
}

func TestFigure2AllProfilesConnect(t *testing.T) {
	for _, prof := range []Figure2Profile{ProfileUniform, ProfileSlowDiagonal, ProfileAsymmetric} {
		for _, proto := range []Protocol{ARPPath, STP} {
			n := Figure2(DefaultOptions(proto, 1), prof)
			a, b := n.Host("A"), n.Host("B")
			ok := false
			n.Engine.At(n.Now(), func() {
				a.Ping(b.IP(), 56, 2*time.Second, func(r host.PingResult) { ok = r.Err == nil })
			})
			n.RunFor(5 * time.Second)
			if !ok {
				t.Fatalf("%s/%s: A cannot reach B", proto, prof)
			}
		}
	}
}

func TestFigure2STPUsesDiagonal(t *testing.T) {
	// With default priorities NIC1 is root and NF4's root port is the
	// diagonal — regardless of its delay. This is the premise of the
	// Figure 2 comparison.
	n := Figure2(DefaultOptions(STP, 1), ProfileSlowDiagonal)
	nf4 := n.Bridge("NF4").(*stp.Bridge)
	diag := n.Link("NF1-NF4")
	var rootPort int
	for _, p := range nf4.Ports() {
		if nf4.Role(p) == stp.RoleRoot {
			rootPort = p.Index()
		}
	}
	want := -1
	for _, p := range nf4.Ports() {
		if p.Link() == diag {
			want = p.Index()
		}
	}
	if rootPort != want {
		t.Fatalf("NF4 root port %d, want diagonal %d", rootPort, want)
	}
}

func TestLineRingGrid(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Built
		h1    string
		h2    string
	}{
		{"line", func() *Built { return Line(DefaultOptions(Learning, 1), 4) }, "H1", "H2"},
		{"ring", func() *Built { return Ring(DefaultOptions(ARPPath, 1), 5) }, "H1", "H3"},
		{"grid", func() *Built { return Grid(DefaultOptions(ARPPath, 1), 3, 3) }, "H1", "H4"},
	}
	for _, c := range cases {
		n := c.build()
		ok := false
		a, b := n.Host(c.h1), n.Host(c.h2)
		n.Engine.At(n.Now(), func() {
			a.Ping(b.IP(), 56, 2*time.Second, func(r host.PingResult) { ok = r.Err == nil })
		})
		n.RunFor(5 * time.Second)
		if !ok {
			t.Fatalf("%s: %s cannot reach %s", c.name, c.h1, c.h2)
		}
	}
}

func TestFatTreeShape(t *testing.T) {
	n := FatTree(DefaultOptions(ARPPath, 1), 4)
	if len(n.Hosts) != 16 {
		t.Fatalf("hosts = %d, want 16", len(n.Hosts))
	}
	if len(n.Bridges) != 20 { // 4 cores + 4 pods × (2+2)
		t.Fatalf("bridges = %d, want 20", len(n.Bridges))
	}
	// Cross-pod connectivity.
	ok := false
	a, b := n.Host("H1"), n.Host("H16")
	n.Engine.At(n.Now(), func() {
		a.Ping(b.IP(), 56, 2*time.Second, func(r host.PingResult) { ok = r.Err == nil })
	})
	n.RunFor(5 * time.Second)
	if !ok {
		t.Fatal("cross-pod ping failed")
	}
}

func TestRandomTopologyDeterministic(t *testing.T) {
	a := Random(DefaultOptions(ARPPath, 7), 8, 5)
	b := Random(DefaultOptions(ARPPath, 7), 8, 5)
	if len(a.Links) != len(b.Links) {
		t.Fatal("same seed produced different topologies")
	}
	for name := range a.Links {
		if _, ok := b.Links[name]; !ok {
			t.Fatalf("link %q missing in twin build", name)
		}
	}
	c := Random(DefaultOptions(ARPPath, 8), 8, 5)
	same := len(c.Links) == len(a.Links)
	if same {
		for name := range a.Links {
			if _, ok := c.Links[name]; !ok {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical random topologies")
	}
}

func TestRandomConnectivityUnderARPPath(t *testing.T) {
	n := Random(DefaultOptions(ARPPath, 3), 10, 8)
	ok := false
	a, b := n.Host("H1"), n.Host("H10")
	n.Engine.At(n.Now(), func() {
		a.Ping(b.IP(), 56, 2*time.Second, func(r host.PingResult) { ok = r.Err == nil })
	})
	n.RunFor(5 * time.Second)
	if !ok {
		t.Fatal("random topology not connected end to end")
	}
}

func TestBridgeAccessors(t *testing.T) {
	n := Figure2(DefaultOptions(ARPPath, 1), ProfileUniform)
	if n.ARPPathBridge("NF1").Name() != "NF1" {
		t.Fatal("ARPPathBridge accessor")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("missing bridge did not panic")
		}
	}()
	n.Bridge("nope")
}

// TestBadParamsPanic: each builder panics on a size its family's row
// refuses, with that row's error naming the key.
func TestBadParamsPanic(t *testing.T) {
	for name, c := range map[string]struct {
		f    func()
		want string // the panic's error prefix; "" is any panic
	}{
		"line0":    {func() { Line(DefaultOptions(ARPPath, 1), 0) }, "spec: topology.n: line"},
		"ring2":    {func() { Ring(DefaultOptions(ARPPath, 1), 2) }, "spec: topology.n: ring"},
		"grid1":    {func() { Grid(DefaultOptions(ARPPath, 1), 1, 5) }, "spec: topology.rows/cols: grid"},
		"fatodd":   {func() { FatTree(DefaultOptions(ARPPath, 1), 3) }, "spec: topology.n: fattree"},
		"random1":  {func() { Random(DefaultOptions(ARPPath, 1), 1, 0) }, "spec: topology.n: random"},
		"randneg":  {func() { Random(DefaultOptions(ARPPath, 1), 4, -1) }, "spec: topology.extra_edges: random"},
		"erp":      {func() { ErdosRenyi(DefaultOptions(ARPPath, 1), 4, 1.5) }, "spec: topology.p: erdos-renyi"},
		"rings1":   {func() { RingOfRings(DefaultOptions(ARPPath, 1), 1, 3) }, "spec: topology.rings: ring-of-rings"},
		"regodd":   {func() { RandomRegular(DefaultOptions(ARPPath, 1), 7, 3) }, "spec: topology.n: random-regular"},
		"badprof":  {func() { Figure2(DefaultOptions(ARPPath, 1), "nope") }, "spec: topology.profile: figure2"},
		"badproto": {func() { NewBuilder(Options{Protocol: "nope"}).AddBridge("x") }, ""},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s did not panic", name)
				}
				if err, _ := r.(error); c.want != "" && (err == nil || !strings.HasPrefix(err.Error(), c.want)) {
					t.Fatalf("%s panicked with %v, want an error starting %q", name, r, c.want)
				}
			}()
			c.f()
		}()
	}
}

func TestHostMACsUnique(t *testing.T) {
	n := FatTree(DefaultOptions(ARPPath, 1), 4)
	seen := map[layers.MAC]bool{}
	for _, h := range n.Hosts {
		if seen[h.MAC()] {
			t.Fatalf("duplicate MAC %s", h.MAC())
		}
		seen[h.MAC()] = true
	}
}
