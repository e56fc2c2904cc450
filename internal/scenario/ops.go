package scenario

// The fault-op vocabulary: one row of the kind table (faultKinds) per
// kind names, encodes, checks, describes and applies it. The batch sweep
// (Run/Replay/Shrink) and the serving daemon (pkg/fabric/serve) share it:
// an op means exactly the same state change in both, and the JSON codec
// below is the wire/op-log form both agree on.

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/host/app"
	"repro/internal/netsim"
	"repro/internal/topo"
)

// FaultKind discriminates the ops a schedule is made of: it indexes the
// kind table.
type FaultKind uint8

// Fault op kinds.
const (
	OpLinkDown FaultKind = iota
	OpLinkUp
	OpBridgeRestart
	OpSetLoss
	OpClearLoss
	OpBurst
	OpHostMove   // station re-homes to its spare jack and announces
	OpHostReturn // station re-homes back to its original jack and announces
)

// FaultOp is one replayable fault action: pure data — indices into an
// Index's name lists plus parameters — so a schedule can be re-applied to
// a rebuilt instance, shrunk to a minimal failing subset (see Shrink), or
// streamed at a live fabric. At is relative to the start of the fault
// phase.
type FaultOp struct {
	At   time.Duration
	Kind FaultKind

	Link int     // Index.Links index (OpLinkDown/OpLinkUp/OpSetLoss/OpClearLoss)
	Side int     // transmitting side for loss ops: 0 = A, 1 = B
	Rate float64 // loss probability (OpSetLoss)

	Bridge int // Index.Bridges index (OpBridgeRestart)

	Host int // Index.Hosts index (OpHostMove/OpHostReturn)

	Src, Dst int           // host indices (OpBurst)
	Port     uint16        // UDP port the burst runs on (unique per op)
	Count    int           // datagrams in the burst
	Interval time.Duration // datagram spacing
	Payload  int           // datagram payload bytes
}

// faultKind is one row of the kind table: everything the tree knows about
// one fault op kind. name is its wire name; reads are the wire fields it
// reads besides at and kind, in wire order (opFields'), which the codec
// writes and requires, refusing any other. text renders the op after its
// time (String), names the entities it acts on ("" when an index is out
// of range; Describe), check refuses what apply cannot run (Validate),
// and apply schedules the op at its absolute time (Apply).
type faultKind struct {
	name  string
	reads []string
	text  func(op FaultOp) string
	names func(ix *Index, op FaultOp) string
	check func(ix *Index, op FaultOp) error
	apply func(ix *Index, op FaultOp, at time.Duration, res *applied)
}

// applied is what one Apply call reports: burst datagrams offered and the
// burst sinks it bound.
type applied struct {
	offered int
	sinks   []*app.Sink
}

// faultKinds is the kind table.
var faultKinds = [...]faultKind{
	OpLinkDown: linkKind("link-down", false),
	OpLinkUp:   linkKind("link-up", true),
	OpBridgeRestart: {name: "bridge-restart", reads: []string{"bridge"},
		text:  func(op FaultOp) string { return fmt.Sprintf("bridge %d restart", op.Bridge) },
		names: func(ix *Index, op FaultOp) string { return nameAt(ix.Bridges, op.Bridge) },
		check: func(ix *Index, op FaultOp) error {
			if err := inRange("bridge", op.Bridge, len(ix.Bridges)); err != nil {
				return err
			}
			// apply restarts through a bare type assertion; catch a
			// non-restartable protocol here instead of panicking mid-run.
			_, ok := ix.bridge(op.Bridge).(restartable)
			return refuse(!ok, "bridge %d (%T) does not support restart", op.Bridge, ix.bridge(op.Bridge))
		},
		// Restart wipes the bridge and bounces every attached link, which
		// notifies each peer node.
		apply: func(ix *Index, op FaultOp, at time.Duration, _ *applied) {
			br := ix.bridge(op.Bridge)
			touch := []netsim.Node{br}
			for _, p := range br.Ports() {
				touch = append(touch, p.Peer().Node())
			}
			ix.scheduleOp(at, br, touch, func() { ix.bridge(op.Bridge).(restartable).Restart() })
		}},
	OpSetLoss:   lossKind("set-loss", true),
	OpClearLoss: lossKind("clear-loss", false),
	OpBurst: {name: "burst", reads: []string{"src", "dst", "port", "count", "interval", "payload"},
		text: func(op FaultOp) string {
			return fmt.Sprintf("burst host %d -> host %d (%d x %dB @ %v)", op.Src, op.Dst, op.Count, op.Payload, op.Interval)
		},
		names: func(ix *Index, op FaultOp) string { return nameAt(ix.Hosts, op.Src, op.Dst) },
		check: func(ix *Index, op FaultOp) error {
			return cmp.Or(inRange("src host", op.Src, len(ix.Hosts)), inRange("dst host", op.Dst, len(ix.Hosts)),
				refuse(op.Src == op.Dst, "burst src and dst are both host %d", op.Src),
				refuse(op.Count <= 0, "burst count %d must be positive", op.Count),
				refuse(op.Interval <= 0, "burst interval %v must be positive", op.Interval),
				refuse(op.Payload <= 0 || op.Payload > 1472, "burst payload %d outside (0,1472]", op.Payload))
		},
		// Sinks are bound up front (port bindings are not time-dependent),
		// one per destination (host, port) however many bursts name it. A
		// burst's source socket is unbound (source port 0), so bursts
		// never collide.
		apply: func(ix *Index, op FaultOp, at time.Duration, res *applied) {
			res.offered += op.Count
			if dst := [2]int{op.Dst, int(op.Port)}; !ix.sinks[dst] {
				ix.sinks[dst] = true
				res.sinks = append(res.sinks, app.NewSink(ix.host(op.Dst), op.Port))
			}
			src := ix.host(op.Src)
			ix.scheduleOp(at, src, []netsim.Node{src}, func() {
				app.StartFlow(src, app.FlowConfig{
					DstIP: ix.host(op.Dst).IP(), DstPort: op.Port,
					PayloadSize: op.Payload, Interval: op.Interval, Count: op.Count,
				}, nil)
			})
		}},
	OpHostMove:   hostKind("host-move", true),
	OpHostReturn: hostKind("host-return", false),
}

// linkKind is the row of the link-down (up false) or link-up kind.
func linkKind(name string, up bool) faultKind {
	return faultKind{name: name, reads: []string{"link"},
		text:  func(op FaultOp) string { return fmt.Sprintf("link %d %s", op.Link, strings.TrimPrefix(name, "link-")) },
		names: func(ix *Index, op FaultOp) string { return nameAt(ix.Links, op.Link) },
		check: func(ix *Index, op FaultOp) error { return inRange("link", op.Link, len(ix.Links)) },
		// SetUp purges both directions and notifies both end nodes.
		apply: func(ix *Index, op FaultOp, at time.Duration, _ *applied) {
			l := ix.link(op.Link)
			a, b := linkEnds(l)
			ix.scheduleOp(at, a, []netsim.Node{a, b}, func() { l.SetUp(up) })
		}}
}

// lossKind is the row of the set-loss (set true) or clear-loss kind: one
// direction of a link, named by its transmitting side.
func lossKind(name string, set bool) faultKind {
	k := faultKind{name: name, reads: []string{"link", "side"},
		text:  func(op FaultOp) string { return fmt.Sprintf("link %d side %d loss clear", op.Link, op.Side) },
		names: func(ix *Index, op FaultOp) string { return nameAt(ix.Links, op.Link) },
		check: func(ix *Index, op FaultOp) error {
			return cmp.Or(inRange("link", op.Link, len(ix.Links)),
				refuse(op.Side != 0 && op.Side != 1, "loss side %d must be 0 or 1", op.Side),
				refuse(set && (op.Rate < 0 || op.Rate > 1), "loss rate %v outside [0,1]", op.Rate))
		},
		// A direction's loss state is owned by the transmitting side.
		apply: func(ix *Index, op FaultOp, at time.Duration, _ *applied) {
			l := ix.link(op.Link)
			from := l.Ports()[op.Side]
			rate := op.Rate
			if !set {
				rate = 0
			}
			ix.scheduleOp(at, from.Node(), []netsim.Node{from.Node()}, func() { l.SetLoss(from, rate) })
		}}
	if set {
		k.reads = append(k.reads, "rate")
		k.text = func(op FaultOp) string { return fmt.Sprintf("link %d side %d loss %.2f", op.Link, op.Side, op.Rate) }
	}
	return k
}

// hostKind is the row of the host-move (toSpare true) or host-return kind.
func hostKind(name string, toSpare bool) faultKind {
	move := "returns to home jack"
	if toSpare {
		move = "moves to spare jack"
	}
	return faultKind{name: name, reads: []string{"host"},
		text:  func(op FaultOp) string { return fmt.Sprintf("host %d %s", op.Host, move) },
		names: func(ix *Index, op FaultOp) string { return nameAt(ix.Hosts, op.Host) },
		check: func(ix *Index, op FaultOp) error {
			_, mobile := ix.spareJack[op.Host]
			return cmp.Or(inRange("host", op.Host, len(ix.Hosts)),
				refuse(!mobile, "host %d (%s) has no spare jack", op.Host, nameAt(ix.Hosts, op.Host)))
		},
		apply: func(ix *Index, op FaultOp, at time.Duration, _ *applied) {
			ix.scheduleOp(at, ix.host(op.Host), ix.rehomeTouch(op.Host), func() { ix.rehome(op.Host, toSpare) })
		}}
}

// refuse is the error format and args say when bad holds, else nil: a
// check is the cmp.Or of its refusals, so the first that holds is its
// error.
func refuse(bad bool, format string, args ...any) error {
	if bad {
		return fmt.Errorf(format, args...)
	}
	return nil
}

// inRange refuses index i of a what outside [0,n).
func inRange(what string, i, n int) error {
	return refuse(i < 0 || i >= n, "%s index %d out of range [0,%d)", what, i, n)
}

// nameAt joins names[i] for each i with " -> ", or is "" when an i is
// outside the list.
func nameAt(names []string, idx ...int) string {
	var at []string
	for _, i := range idx {
		if i < 0 || i >= len(names) {
			return ""
		}
		at = append(at, names[i])
	}
	return strings.Join(at, " -> ")
}

// row is the kind's row in the kind table, or nil for a kind outside it.
func (k FaultKind) row() *faultKind {
	if int(k) < len(faultKinds) {
		return &faultKinds[k]
	}
	return nil
}

// MarshalText renders the kind's wire name ("link-down", "burst", …).
func (k FaultKind) MarshalText() ([]byte, error) {
	if r := k.row(); r != nil {
		return []byte(r.name), nil
	}
	return nil, fmt.Errorf("scenario: unknown fault kind %d", k)
}

// UnmarshalText parses a wire name strictly: unknown names are errors.
func (k *FaultKind) UnmarshalText(b []byte) error {
	for i := range faultKinds {
		if faultKinds[i].name == string(b) {
			*k = FaultKind(i)
			return nil
		}
	}
	return fmt.Errorf("scenario: unknown fault kind %q", b)
}

// String renders the op for failure reports.
func (op FaultOp) String() string {
	if k := op.Kind.row(); k != nil {
		return fmt.Sprintf("t=%v %s", op.At, k.text(op))
	}
	return fmt.Sprintf("t=%v op(?)", op.At)
}

// opFields are the wire fields of an op, in wire order, each with the one
// accessor to the FaultOp field it carries: at and kind, which every op
// has, then every field some kind reads. Durations use the human-readable
// "150ms" form shared with pkg/fabric specs.
var opFields = [...]opField{
	{"at", func(op *FaultOp) any { return (*topo.Duration)(&op.At) }},
	{"kind", func(op *FaultOp) any { return &op.Kind }},
	{"link", func(op *FaultOp) any { return &op.Link }},
	{"side", func(op *FaultOp) any { return &op.Side }},
	{"rate", func(op *FaultOp) any { return &op.Rate }},
	{"bridge", func(op *FaultOp) any { return &op.Bridge }},
	{"host", func(op *FaultOp) any { return &op.Host }},
	{"src", func(op *FaultOp) any { return &op.Src }},
	{"dst", func(op *FaultOp) any { return &op.Dst }},
	{"port", func(op *FaultOp) any { return &op.Port }},
	{"count", func(op *FaultOp) any { return &op.Count }},
	{"interval", func(op *FaultOp) any { return (*topo.Duration)(&op.Interval) }},
	{"payload", func(op *FaultOp) any { return &op.Payload }},
}

type opField struct {
	name string
	of   func(*FaultOp) any
}

// carries reports whether an op of kind k has wire field name.
func (k *faultKind) carries(name string) bool {
	return name == "at" || name == "kind" || slices.Contains(k.reads, name)
}

// MarshalJSON emits the op in wire form: at, kind, and exactly the fields
// the kind reads.
func (op FaultOp) MarshalJSON() ([]byte, error) {
	k := op.Kind.row()
	if k == nil {
		return nil, fmt.Errorf("scenario: unknown fault kind %d", op.Kind)
	}
	var b []byte
	for _, f := range opFields {
		if !k.carries(f.name) {
			continue
		}
		v, err := json.Marshal(f.of(&op))
		if err != nil {
			return nil, err
		}
		b = append(append(strconv.AppendQuote(append(b, ','), f.name), ':'), v...)
	}
	b[0] = '{' // every op carries at and kind, so the first comma is there
	return append(b, '}'), nil
}

// UnmarshalJSON decodes the wire form strictly: keys match exactly, an
// unknown key is refused, kind is required, and a field the kind does not
// read (or a field it reads that is absent) is an error. A null field is
// an absent one.
func (op *FaultOp) UnmarshalJSON(data []byte) error {
	if err := op.decode(data); err != nil {
		return fmt.Errorf("scenario op: %w", err)
	}
	return nil
}

func (op *FaultOp) decode(data []byte) error {
	*op = FaultOp{}
	dec := json.NewDecoder(bytes.NewReader(data))
	if t, _ := dec.Token(); t != json.Delim('{') {
		return errors.New("a fault op is a JSON object")
	}
	var present [len(opFields)]bool
	for dec.More() {
		key, _ := dec.Token() // data is one well-formed value
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return err
		}
		i := fieldIndex(key)
		if i < 0 {
			return fmt.Errorf("json: unknown field %q", key)
		}
		if err := json.Unmarshal(raw, opFields[i].of(op)); err != nil {
			if te := (*json.UnmarshalTypeError)(nil); errors.As(err, &te) {
				te.Struct, te.Field = "FaultOp", opFields[i].name
			}
			return err
		}
		present[i] = string(raw) != "null"
	}
	if !present[fieldIndex("kind")] {
		return errors.New(`an op requires field "kind"`)
	}
	k := op.Kind.row() // UnmarshalText refused a name outside the table
	for i, f := range opFields {
		if present[i] && !k.carries(f.name) {
			return fmt.Errorf("field %q is not read by kind %q", f.name, k.name)
		}
	}
	for _, name := range k.reads {
		if !present[fieldIndex(name)] {
			return fmt.Errorf("kind %q requires field %q", k.name, name)
		}
	}
	return nil
}

// fieldIndex is the opFields index of the wire field key, or -1.
func fieldIndex(key any) int {
	return slices.IndexFunc(opFields[:], func(f opField) bool { return f.name == key })
}
