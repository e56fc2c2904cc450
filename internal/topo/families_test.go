package topo

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// connected verifies the bridge+host graph of a Built is one component.
func connected(t *testing.T, b *Built) {
	t.Helper()
	adj := make(map[string][]string)
	for _, l := range b.Links {
		x, y := l.A().Node().Name(), l.B().Node().Name()
		adj[x] = append(adj[x], y)
		adj[y] = append(adj[y], x)
	}
	if len(adj) == 0 {
		t.Fatal("no links")
	}
	var start string
	for n := range adj {
		start = n
		break
	}
	seen := map[string]bool{start: true}
	stack := []string{start}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	want := len(b.Bridges) + len(b.Hosts)
	if len(seen) != want {
		t.Fatalf("graph not connected: reached %d of %d nodes", len(seen), want)
	}
}

func TestErdosRenyiShape(t *testing.T) {
	for _, p := range []float64{0, 0.2, 1} {
		b := ErdosRenyi(DefaultOptions(ARPPath, 1), 10, p)
		if len(b.Bridges) != 10 || len(b.Hosts) != 10 {
			t.Fatalf("p=%v: got %d bridges, %d hosts", p, len(b.Bridges), len(b.Hosts))
		}
		// Spanning tree (9) + hosts (10) is the floor; the complete graph
		// (45) + hosts the ceiling.
		if n := len(b.Links); n < 19 || n > 55 {
			t.Fatalf("p=%v: %d links out of range", p, n)
		}
		connected(t, b)
	}
	// p=1 must yield the complete graph.
	if n := len(ErdosRenyi(DefaultOptions(ARPPath, 1), 6, 1).Links); n != 15+6 {
		t.Fatalf("complete K6: %d links, want 21", n)
	}
}

func TestRingOfRingsShape(t *testing.T) {
	b := RingOfRings(DefaultOptions(ARPPath, 1), 3, 4)
	if len(b.Bridges) != 12 || len(b.Hosts) != 12 {
		t.Fatalf("got %d bridges, %d hosts", len(b.Bridges), len(b.Hosts))
	}
	// 3 rings × 4 inner links + 3 outer + 12 host links.
	if n := len(b.Links); n != 12+3+12 {
		t.Fatalf("%d links, want 27", n)
	}
	connected(t, b)
}

func TestRandomRegularShape(t *testing.T) {
	b := RandomRegular(DefaultOptions(ARPPath, 1), 10, 3)
	if len(b.Bridges) != 10 || len(b.Hosts) != 10 {
		t.Fatalf("got %d bridges, %d hosts", len(b.Bridges), len(b.Hosts))
	}
	// Ring (10) + one matching (5) + host links (10).
	if n := len(b.Links); n != 25 {
		t.Fatalf("%d links, want 25", n)
	}
	// Every bridge carries degree 3 (+1 host link); matchings may create
	// parallel links but never change the degree sum.
	for _, br := range b.Bridges {
		if d := len(br.Ports()); d != 4 {
			t.Fatalf("%s has %d ports, want 4", br.Name(), d)
		}
	}
	connected(t, b)
}

// TestFamiliesDeterministic pins seed → wiring: two builds from one seed
// have identical link name sets, and a different seed differs (for the
// families that randomize their shape).
func TestFamiliesDeterministic(t *testing.T) {
	names := func(b *Built) map[string]bool {
		m := make(map[string]bool, len(b.Links))
		for n := range b.Links {
			m[n] = true
		}
		return m
	}
	build := func(seed int64) *Built { return ErdosRenyi(DefaultOptions(ARPPath, seed), 12, 0.25) }
	a, b := names(build(5)), names(build(5))
	if len(a) != len(b) {
		t.Fatalf("same seed, different link counts: %d vs %d", len(a), len(b))
	}
	for n := range a {
		if !b[n] {
			t.Fatalf("same seed, link %s missing from second build", n)
		}
	}
	c := names(build(6))
	same := len(a) == len(c)
	if same {
		for n := range a {
			if !c[n] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 5 and 6 produced identical wiring (suspicious)")
	}
}

// TestDrawRefusesNonSweepFamilies: Draw refuses, by a panic naming the
// family, both a name the table lacks and a family with no sweep draw.
func TestDrawRefusesNonSweepFamilies(t *testing.T) {
	for _, c := range []struct{ family, want string }{
		{"torus", `spec: unknown topology family "torus" (known: `},
		{"ring", `spec: topology family "ring" has no sweep draw (sweep families: ` + strings.Join(Families(true), ", ") + ")"},
	} {
		func() {
			defer func() {
				if got := fmt.Sprint(recover()); !strings.HasPrefix(got, c.want) {
					t.Errorf("Draw(%q): recovered %q, want %q", c.family, got, c.want)
				}
			}()
			Draw(c.family, rand.New(rand.NewSource(1)), false)
		}()
	}
}
