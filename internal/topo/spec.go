package topo

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
)

// TopologySpec names a topology family and its size keys: the "topology"
// object of a spec file. Each family reads its own keys, and WithDefaults
// refuses any other key that is set:
//
//	figure1          —
//	figure2          profile: uniform, slow-diagonal or asymmetric
//	line, ring       n bridges
//	grid             rows × cols bridges (rows defaults to n, cols to rows)
//	fattree          n, the arity k
//	random           n bridges, extra_edges (n when omitted)
//	erdos-renyi      n bridges, p (the edge probability), spare_jacks
//	ring-of-rings    rings of ring_size bridges, spare_jacks
//	random-regular   n bridges, degree, spare_jacks
//
// spare_jacks pre-cables every host with a second, initially-down access
// link on the next bridge: the wall jack host-mobility ops re-home the
// station to (fabricserve rejects those ops on a fabric without them).
type TopologySpec struct {
	Family     string  `json:"family,omitempty"` // a row of the family table; empty is figure2
	N          int     `json:"n,omitempty"`
	Rows       int     `json:"rows,omitempty"`
	Cols       int     `json:"cols,omitempty"`
	Rings      int     `json:"rings,omitempty"`
	RingSize   int     `json:"ring_size,omitempty"`
	Degree     int     `json:"degree,omitempty"`
	ExtraEdges int     `json:"extra_edges,omitempty"`
	P          float64 `json:"p,omitempty"`
	Profile    string  `json:"profile,omitempty"`
	SpareJacks bool    `json:"spare_jacks,omitempty"`
}

// family is one row of the family table: everything the tree knows about
// one topology family. defaults (may be nil) fills unset keys; check
// refuses, naming the key, every shape the builder cannot build, and the
// builder panics with its error; draw, for the sweep's families only,
// draws a shape from a scenario's plan RNG at the small or the big tier.
type family struct {
	name     string
	keys     []string // the TopologySpec keys the family reads
	defaults func(*TopologySpec)
	check    func(TopologySpec) error
	build    func(Options, TopologySpec) *Built
	draw     func(plan *rand.Rand, big bool) TopologySpec
}

// families is the family table; the rows with a draw are in sweep order.
// init fills it, because the builders it names check through it.
var families []family

func init() {
	sized := func(t *TopologySpec) { t.N = cmp.Or(t.N, 4) }
	families = []family{
		{name: "figure1", check: func(TopologySpec) error { return nil },
			build: func(o Options, _ TopologySpec) *Built { return Figure1(o) }},
		{name: "figure2", keys: []string{"profile"},
			defaults: func(t *TopologySpec) { t.Profile = cmp.Or(t.Profile, string(ProfileSlowDiagonal)) },
			check: func(t TopologySpec) error {
				_, ok := figure2Delays[Figure2Profile(t.Profile)]
				return need(ok, t, "profile", "uniform, slow-diagonal or asymmetric", strconv.Quote(t.Profile))
			},
			build: func(o Options, t TopologySpec) *Built { return Figure2(o, Figure2Profile(t.Profile)) }},
		{name: "line", keys: []string{"n"}, defaults: sized,
			check: func(t TopologySpec) error { return need(t.N >= 1, t, "n", "at least 1 bridge", t.N) },
			build: func(o Options, t TopologySpec) *Built { return Line(o, t.N) }},
		{name: "ring", keys: []string{"n"}, defaults: sized,
			check: func(t TopologySpec) error { return need(t.N >= 3, t, "n", "at least 3 bridges", t.N) },
			build: func(o Options, t TopologySpec) *Built { return Ring(o, t.N) }},
		{name: "random", keys: []string{"n", "extra_edges"},
			defaults: func(t *TopologySpec) { sized(t); t.ExtraEdges = cmp.Or(t.ExtraEdges, t.N) },
			check: func(t TopologySpec) error {
				return cmp.Or(need(t.N >= 2, t, "n", "at least 2 bridges", t.N),
					need(t.ExtraEdges >= 0, t, "extra_edges", "a count ≥ 0", t.ExtraEdges))
			},
			build: func(o Options, t TopologySpec) *Built { return Random(o, t.N, t.ExtraEdges) }},
		{name: "erdos-renyi", keys: []string{"n", "p", "spare_jacks"},
			defaults: func(t *TopologySpec) { sized(t); t.P = cmp.Or(t.P, 0.2) },
			check: func(t TopologySpec) error {
				return cmp.Or(need(t.N >= 2, t, "n", "at least 2 bridges", t.N),
					need(t.P >= 0 && t.P <= 1, t, "p", "a probability in [0, 1]", t.P))
			},
			build: func(o Options, t TopologySpec) *Built { return ErdosRenyi(o, t.N, t.P) },
			draw: func(r *rand.Rand, big bool) TopologySpec {
				return TopologySpec{N: tier(big, 8, 40) + r.Intn(tier(big, 6, 17)),
					P: tier(big, 0.1, 0.04) + tier(big, 0.2, 0.06)*r.Float64()}
			}},
		{name: "ring-of-rings", keys: []string{"rings", "ring_size", "spare_jacks"},
			defaults: func(t *TopologySpec) { t.Rings, t.RingSize = cmp.Or(t.Rings, 3), cmp.Or(t.RingSize, 4) },
			check: func(t TopologySpec) error {
				return cmp.Or(need(t.Rings >= 2, t, "rings", "at least 2 rings", t.Rings),
					need(t.RingSize >= 3, t, "ring_size", "at least 3 bridges per ring", t.RingSize))
			},
			build: func(o Options, t TopologySpec) *Built { return RingOfRings(o, t.Rings, t.RingSize) },
			draw: func(r *rand.Rand, big bool) TopologySpec {
				return TopologySpec{Rings: tier(big, 2, 4) + r.Intn(2), RingSize: tier(big, 3, 6) + r.Intn(3)}
			}},
		{name: "random-regular", keys: []string{"n", "degree", "spare_jacks"},
			defaults: func(t *TopologySpec) { sized(t); t.Degree = cmp.Or(t.Degree, 3) },
			check: func(t TopologySpec) error {
				return cmp.Or(need(t.N >= 4 && t.N%2 == 0, t, "n", "an even n ≥ 4", t.N),
					need(t.Degree >= 2 && t.Degree < t.N, t, "degree", "a degree in [2, n)", t.Degree))
			},
			build: func(o Options, t TopologySpec) *Built { return RandomRegular(o, t.N, t.Degree) },
			draw: func(r *rand.Rand, big bool) TopologySpec {
				return TopologySpec{N: tier(big, 8, 40) + 2*r.Intn(tier(big, 3, 9)), Degree: 3}
			}},
		{name: "grid", keys: []string{"n", "rows", "cols"},
			defaults: func(t *TopologySpec) {
				if t.Rows == 0 {
					sized(t)
				}
			},
			check: func(t TopologySpec) error {
				rows, cols := gridSides(t)
				return need(rows >= 2 && cols >= 2, t, "rows/cols", "at least 2x2 (rows defaults to n, cols to rows)",
					fmt.Sprintf("%dx%d", rows, cols))
			},
			build: func(o Options, t TopologySpec) *Built {
				rows, cols := gridSides(t)
				return Grid(o, rows, cols)
			},
			draw: func(r *rand.Rand, big bool) TopologySpec {
				return TopologySpec{Rows: tier(big, 3, 6), Cols: tier(big, 3, 7) + r.Intn(tier(big, 2, 3))}
			}},
		{name: "fattree", keys: []string{"n"}, defaults: sized,
			check: func(t TopologySpec) error { return need(t.N >= 2 && t.N%2 == 0, t, "n", "an even k ≥ 2", t.N) },
			build: func(o Options, t TopologySpec) *Built { return FatTree(o, t.N) },
			draw:  func(_ *rand.Rand, big bool) TopologySpec { return TopologySpec{N: tier(big, 4, 6)} }},
	}
}

// need is a size rule: unless ok, the spec: error naming key.
func need(ok bool, t TopologySpec, key, rule string, got any) error {
	if ok {
		return nil
	}
	return fmt.Errorf("spec: topology.%s: %s needs %s, got %v", key, t.Family, rule, got)
}

// tier is a draw's constant at the small or the big tier. The plan RNG
// calls stay outside it, so both tiers make the same calls.
func tier[T int | float64](big bool, small, large T) T {
	if big {
		return large
	}
	return small
}

// gridSides resolves a grid's sides: rows falls back to n, cols to rows.
func gridSides(t TopologySpec) (rows, cols int) {
	rows = cmp.Or(t.Rows, t.N)
	return rows, cmp.Or(t.Cols, rows)
}

// Families lists the table's family names in table order; with sweep
// set, only the families a scenario can draw, in sweep order.
func Families(sweep bool) (names []string) {
	for _, f := range families {
		if !sweep || f.draw != nil {
			names = append(names, f.name)
		}
	}
	return names
}

func lookup(name string) (*family, error) {
	for i := range families {
		if families[i].name == name {
			return &families[i], nil
		}
	}
	return nil, fmt.Errorf("spec: unknown topology family %q (known: %s)", name, strings.Join(Families(false), ", "))
}

// mustCheck is a builder's precondition: its row's check, as a panic.
func mustCheck(t TopologySpec) {
	f, _ := lookup(t.Family)
	if err := f.check(t); err != nil {
		panic(err)
	}
}

// WithDefaults returns t with its family's unset keys filled in, or the
// spec: error refusing it: an unknown family (the error lists the known
// ones), a set key the family does not read, or a size its builder
// cannot build. An empty family is figure2.
func (t TopologySpec) WithDefaults() (TopologySpec, error) {
	t.Family = cmp.Or(t.Family, "figure2")
	f, err := lookup(t.Family)
	if err != nil {
		return t, err
	}
	if err := CheckKeys(t, "spec: topology.", t.Family, []string{"family"}, f.keys); err != nil {
		return t, err
	}
	if f.defaults != nil {
		f.defaults(&t)
	}
	return t, f.check(t)
}

// CheckKeys is the one key check of every vocabulary (topology families,
// workload kinds, daemon ops): it refuses the first set field of struct v
// that no list in reads names, as "<prefix><key>: <who> does not read it".
// A key is a field's json name, dotted below a struct not read whole.
func CheckKeys(v any, prefix, who string, reads ...[]string) error {
	if key := unread(reflect.ValueOf(v), "", reads); key != "" {
		return fmt.Errorf("%s%s: %s does not read it", prefix, key, who)
	}
	return nil
}

func unread(v reflect.Value, prefix string, reads [][]string) string {
	for i := range v.NumField() {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		key, f := prefix+name, v.Field(i)
		switch {
		case f.IsZero() || slices.ContainsFunc(reads, func(r []string) bool { return slices.Contains(r, key) }):
		case f.Kind() == reflect.Struct:
			if k := unread(f, key+".", reads); k != "" {
				return k
			}
		default:
			return key
		}
	}
	return ""
}

// Build builds a defaulted TopologySpec with its family's builder and
// records it as the fabric's Topology.
func Build(opts Options, t TopologySpec) (*Built, error) {
	f, err := lookup(t.Family)
	if err != nil {
		return nil, err
	}
	b := f.build(opts, t)
	b.Topology = t
	return b, nil
}

// Draw draws a shape of a sweep family from a scenario's plan RNG, at the
// big tier or the small one: one (family, seed, tier) names one shape. A
// family without a draw is refused as an unknown one is, by a panic.
func Draw(name string, plan *rand.Rand, big bool) TopologySpec {
	f, err := lookup(name)
	if err == nil && f.draw == nil {
		err = fmt.Errorf("spec: topology family %q has no sweep draw (sweep families: %s)", name, strings.Join(Families(true), ", "))
	}
	if err != nil {
		panic(err)
	}
	t := f.draw(plan, big)
	t.Family = name
	return t
}
