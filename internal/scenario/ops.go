package scenario

// The fault-op vocabulary and its codec. Ops are the engine's unit of
// replay: pure data (indices into a scenario's sorted name lists plus
// parameters) that can be re-applied to a rebuilt instance, shrunk to a
// minimal failing subset, or — via the exported Index — streamed against
// a live fabric by a driver that never saw the generating seed. The batch
// sweep (Run/Replay/Shrink) and the serving daemon (pkg/fabric/serve)
// share this one vocabulary: an op means exactly the same state change in
// both, and the JSON codec below is the wire/op-log form both agree on.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/topo"
)

// FaultKind discriminates the ops a schedule is made of.
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

	numFaultKinds // count sentinel, keep last
)

// faultKindNames is the codec's stable wire vocabulary, indexed by kind.
var faultKindNames = [numFaultKinds]string{
	OpLinkDown:      "link-down",
	OpLinkUp:        "link-up",
	OpBridgeRestart: "bridge-restart",
	OpSetLoss:       "set-loss",
	OpClearLoss:     "clear-loss",
	OpBurst:         "burst",
	OpHostMove:      "host-move",
	OpHostReturn:    "host-return",
}

// MarshalText renders the kind's wire name ("link-down", "burst", …).
func (k FaultKind) MarshalText() ([]byte, error) {
	if k >= numFaultKinds {
		return nil, fmt.Errorf("scenario: unknown fault kind %d", k)
	}
	return []byte(faultKindNames[k]), nil
}

// UnmarshalText parses a wire name strictly: unknown names are errors.
func (k *FaultKind) UnmarshalText(b []byte) error {
	for i, name := range faultKindNames {
		if name == string(b) {
			*k = FaultKind(i)
			return nil
		}
	}
	return fmt.Errorf("scenario: unknown fault kind %q", b)
}

// FaultOp is one replayable fault action. Ops are pure data — indices into
// the scenario's sorted name lists plus parameters — so a failing
// schedule can be re-applied to a rebuilt instance, and shrunk to a
// minimal failing subset by replaying subsets (see Shrink). At is relative
// to the start of the fault phase.
type FaultOp struct {
	At   time.Duration
	Kind FaultKind

	Link int     // linkNames index (OpLinkDown/OpLinkUp/OpSetLoss/OpClearLoss)
	Side int     // transmitting side for loss ops: 0 = A, 1 = B
	Rate float64 // loss probability (OpSetLoss)

	Bridge int // Bridges index (OpBridgeRestart)

	Host int // hostNames index (OpHostMove/OpHostReturn)

	Src, Dst int           // host indices (OpBurst)
	Port     uint16        // UDP port the burst runs on (unique per op)
	Count    int           // datagrams in the burst
	Interval time.Duration // datagram spacing
	Payload  int           // datagram payload bytes
}

// String renders the op for failure reports.
func (op FaultOp) String() string {
	switch op.Kind {
	case OpLinkDown:
		return fmt.Sprintf("t=%v link %d down", op.At, op.Link)
	case OpLinkUp:
		return fmt.Sprintf("t=%v link %d up", op.At, op.Link)
	case OpBridgeRestart:
		return fmt.Sprintf("t=%v bridge %d restart", op.At, op.Bridge)
	case OpSetLoss:
		return fmt.Sprintf("t=%v link %d side %d loss %.2f", op.At, op.Link, op.Side, op.Rate)
	case OpClearLoss:
		return fmt.Sprintf("t=%v link %d side %d loss clear", op.At, op.Link, op.Side)
	case OpBurst:
		return fmt.Sprintf("t=%v burst host %d -> host %d (%d x %dB @ %v)", op.At, op.Src, op.Dst, op.Count, op.Payload, op.Interval)
	case OpHostMove:
		return fmt.Sprintf("t=%v host %d moves to spare jack", op.At, op.Host)
	case OpHostReturn:
		return fmt.Sprintf("t=%v host %d returns to home jack", op.At, op.Host)
	default:
		return fmt.Sprintf("t=%v op(?)", op.At)
	}
}

// faultOpWire is the strict JSON shape of one op: every field is optional
// on the wire, and marshal/unmarshal enforce that exactly the fields the
// kind reads are present — a schedule that names a rate on a link-down op
// is rejected, not silently half-applied. Durations use the human-readable
// "150ms" form shared with pkg/fabric specs.
type faultOpWire struct {
	At   topo.Duration `json:"at"`
	Kind FaultKind     `json:"kind"`

	Link *int     `json:"link,omitempty"`
	Side *int     `json:"side,omitempty"`
	Rate *float64 `json:"rate,omitempty"`

	Bridge *int `json:"bridge,omitempty"`

	Host *int `json:"host,omitempty"`

	Src      *int           `json:"src,omitempty"`
	Dst      *int           `json:"dst,omitempty"`
	Port     *uint16        `json:"port,omitempty"`
	Count    *int           `json:"count,omitempty"`
	Interval *topo.Duration `json:"interval,omitempty"`
	Payload  *int           `json:"payload,omitempty"`
}

// fieldsOf reports which wire fields the kind reads, in wire order.
func fieldsOf(k FaultKind) []string {
	switch k {
	case OpLinkDown, OpLinkUp:
		return []string{"link"}
	case OpBridgeRestart:
		return []string{"bridge"}
	case OpSetLoss:
		return []string{"link", "side", "rate"}
	case OpClearLoss:
		return []string{"link", "side"}
	case OpBurst:
		return []string{"src", "dst", "port", "count", "interval", "payload"}
	case OpHostMove, OpHostReturn:
		return []string{"host"}
	default:
		return nil
	}
}

// MarshalJSON emits the op in wire form: at, kind, and exactly the fields
// the kind reads.
func (op FaultOp) MarshalJSON() ([]byte, error) {
	if op.Kind >= numFaultKinds {
		return nil, fmt.Errorf("scenario: unknown fault kind %d", op.Kind)
	}
	w := faultOpWire{At: topo.Duration(op.At), Kind: op.Kind}
	for _, f := range fieldsOf(op.Kind) {
		switch f {
		case "link":
			v := op.Link
			w.Link = &v
		case "side":
			v := op.Side
			w.Side = &v
		case "rate":
			v := op.Rate
			w.Rate = &v
		case "bridge":
			v := op.Bridge
			w.Bridge = &v
		case "host":
			v := op.Host
			w.Host = &v
		case "src":
			v := op.Src
			w.Src = &v
		case "dst":
			v := op.Dst
			w.Dst = &v
		case "port":
			v := op.Port
			w.Port = &v
		case "count":
			v := op.Count
			w.Count = &v
		case "interval":
			v := topo.Duration(op.Interval)
			w.Interval = &v
		case "payload":
			v := op.Payload
			w.Payload = &v
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the wire form strictly: unknown JSON fields are
// rejected by the decoder, and fields that are present but not read by the
// kind (or read but absent) are errors.
func (op *FaultOp) UnmarshalJSON(data []byte) error {
	var w faultOpWire
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&w); err != nil {
		return fmt.Errorf("scenario op: %w", err)
	}
	want := fieldsOf(w.Kind)
	wanted := func(name string) bool {
		for _, f := range want {
			if f == name {
				return true
			}
		}
		return false
	}
	present := map[string]bool{
		"link": w.Link != nil, "side": w.Side != nil, "rate": w.Rate != nil,
		"bridge": w.Bridge != nil, "host": w.Host != nil,
		"src": w.Src != nil, "dst": w.Dst != nil, "port": w.Port != nil,
		"count": w.Count != nil, "interval": w.Interval != nil, "payload": w.Payload != nil,
	}
	for name, ok := range present {
		if ok && !wanted(name) {
			return fmt.Errorf("scenario op: field %q is not read by kind %q", name, faultKindNames[w.Kind])
		}
	}
	for _, name := range want {
		if !present[name] {
			return fmt.Errorf("scenario op: kind %q requires field %q", faultKindNames[w.Kind], name)
		}
	}
	*op = FaultOp{At: w.At.D(), Kind: w.Kind}
	if w.Link != nil {
		op.Link = *w.Link
	}
	if w.Side != nil {
		op.Side = *w.Side
	}
	if w.Rate != nil {
		op.Rate = *w.Rate
	}
	if w.Bridge != nil {
		op.Bridge = *w.Bridge
	}
	if w.Host != nil {
		op.Host = *w.Host
	}
	if w.Src != nil {
		op.Src = *w.Src
	}
	if w.Dst != nil {
		op.Dst = *w.Dst
	}
	if w.Port != nil {
		op.Port = *w.Port
	}
	if w.Count != nil {
		op.Count = *w.Count
	}
	if w.Interval != nil {
		op.Interval = w.Interval.D()
	}
	if w.Payload != nil {
		op.Payload = *w.Payload
	}
	return nil
}

// EncodeOps renders a schedule as a compact JSON array, one canonical
// wire-form op per element. DecodeOps(EncodeOps(ops)) == ops.
func EncodeOps(ops []FaultOp) ([]byte, error) {
	if ops == nil {
		ops = []FaultOp{}
	}
	return json.Marshal(ops)
}

// DecodeOps parses a schedule strictly (see FaultOp.UnmarshalJSON).
func DecodeOps(data []byte) ([]FaultOp, error) {
	var ops []FaultOp
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ops); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("scenario ops: trailing data after JSON document")
	}
	return ops, nil
}

// Index is the exported face of a built network's stable integer handles:
// the sorted name lists fault ops index into. The scenario engine resolves
// a generated schedule through the same structure internally; external
// drivers (the serving daemon) use Index to translate entity names into
// replayable ops and to apply them with the identical shard-routing and
// rehoming machinery the batch sweep uses.
type Index struct {
	ix *netIndex
}

// NewIndex builds the handle table for a built topology. The lists are
// sorted name order, so two builds of the same spec index identically.
func NewIndex(built *topo.Built) *Index {
	return &Index{ix: newNetIndex(built)}
}

// Links returns the sorted link names (index i names link i).
func (x *Index) Links() []string { return append([]string(nil), x.ix.linkNames...) }

// Hosts returns the sorted host names (index i names host i).
func (x *Index) Hosts() []string { return append([]string(nil), x.ix.hostNames...) }

// Bridges returns bridge names in build order (index i names bridge i).
func (x *Index) Bridges() []string {
	names := make([]string, len(x.ix.built.Bridges))
	for i, b := range x.ix.built.Bridges {
		names[i] = b.Name()
	}
	return names
}

// Trunks returns the link indices of bridge–bridge links.
func (x *Index) Trunks() []int { return append([]int(nil), x.ix.trunks...) }

// MobileHosts returns the host indices with a pre-cabled spare jack —
// the only legal targets of OpHostMove/OpHostReturn.
func (x *Index) MobileHosts() []int { return append([]int(nil), x.ix.mobile...) }

// LinkIndex resolves a link name to its op index.
func (x *Index) LinkIndex(name string) (int, bool) { return findName(x.ix.linkNames, name) }

// HostIndex resolves a host name to its op index.
func (x *Index) HostIndex(name string) (int, bool) { return findName(x.ix.hostNames, name) }

// BridgeIndex resolves a bridge name to its op index.
func (x *Index) BridgeIndex(name string) (int, bool) {
	for i, b := range x.ix.built.Bridges {
		if b.Name() == name {
			return i, true
		}
	}
	return 0, false
}

func findName(names []string, name string) (int, bool) {
	for i, n := range names {
		if n == name {
			return i, true
		}
	}
	return 0, false
}

// Host returns host i's handle (for drivers that attach workloads to the
// same endpoints ops reference).
func (x *Index) Host(i int) *host.Host { return x.ix.host(i) }

// Describe renders an op against the concrete instance (names, not
// indices).
func (x *Index) Describe(op FaultOp) string { return x.ix.describe(op) }

// Validate bounds-checks an op against the instance without applying it:
// indices must name real entities, loss sides/rates and burst parameters
// must be well-formed, and moves must target mobile hosts. Apply assumes
// validated ops; a daemon validates at the trust boundary instead of
// panicking mid-simulation.
func (x *Index) Validate(op FaultOp) error {
	ix := x.ix
	checkLink := func() error {
		if op.Link < 0 || op.Link >= len(ix.linkNames) {
			return fmt.Errorf("link index %d out of range [0,%d)", op.Link, len(ix.linkNames))
		}
		return nil
	}
	checkHost := func(i int, what string) error {
		if i < 0 || i >= len(ix.hostNames) {
			return fmt.Errorf("%s index %d out of range [0,%d)", what, i, len(ix.hostNames))
		}
		return nil
	}
	if op.At < 0 {
		return fmt.Errorf("op time %v is negative", op.At)
	}
	switch op.Kind {
	case OpLinkDown, OpLinkUp:
		return checkLink()
	case OpBridgeRestart:
		if op.Bridge < 0 || op.Bridge >= len(ix.built.Bridges) {
			return fmt.Errorf("bridge index %d out of range [0,%d)", op.Bridge, len(ix.built.Bridges))
		}
		// Apply restarts through a bare type assertion; catch a
		// non-restartable protocol here instead of panicking mid-run.
		if _, ok := ix.built.Bridges[op.Bridge].(restartable); !ok {
			return fmt.Errorf("bridge %d (%T) does not support restart", op.Bridge, ix.built.Bridges[op.Bridge])
		}
		return nil
	case OpSetLoss, OpClearLoss:
		if err := checkLink(); err != nil {
			return err
		}
		if op.Side != 0 && op.Side != 1 {
			return fmt.Errorf("loss side %d must be 0 or 1", op.Side)
		}
		if op.Kind == OpSetLoss && (op.Rate < 0 || op.Rate > 1) {
			return fmt.Errorf("loss rate %v outside [0,1]", op.Rate)
		}
		return nil
	case OpBurst:
		if err := checkHost(op.Src, "src host"); err != nil {
			return err
		}
		if err := checkHost(op.Dst, "dst host"); err != nil {
			return err
		}
		if op.Src == op.Dst {
			return fmt.Errorf("burst src and dst are both host %d", op.Src)
		}
		if op.Count <= 0 {
			return fmt.Errorf("burst count %d must be positive", op.Count)
		}
		if op.Interval <= 0 {
			return fmt.Errorf("burst interval %v must be positive", op.Interval)
		}
		if op.Payload <= 0 || op.Payload > 1472 {
			return fmt.Errorf("burst payload %d outside (0,1472]", op.Payload)
		}
		return nil
	case OpHostMove, OpHostReturn:
		if err := checkHost(op.Host, "host"); err != nil {
			return err
		}
		if _, ok := ix.spareJack[op.Host]; !ok {
			return fmt.Errorf("host %d (%s) has no spare jack", op.Host, ix.hostNames[op.Host])
		}
		return nil
	default:
		return fmt.Errorf("unknown fault kind %d", op.Kind)
	}
}

// Apply schedules every op at base+op.At with the engine's shard-aware
// routing (shard-local where possible, coordinator barrier where an op
// genuinely spans shards). Burst sinks are bound immediately, one per
// destination (host, port); the returned sinks are the ones this call
// bound. Apply is legal from driver context only — between runs, exactly
// like the batch engine's fault phase.
func (x *Index) Apply(ops []FaultOp, base time.Duration) (offered int, sinks []*app.Sink) {
	return applyOps(x.ix, ops, base)
}

// Heal returns every link to service: all links up, loss cleared, and any
// station stranded on its spare jack re-homed and re-announced.
func (x *Index) Heal() { heal(x.ix) }

// PartitionCut draws a seeded bisection of the bridge graph and returns
// the crossing trunk links as op indices — plain link ops, so a partition
// streamed at a daemon replays and heals like any other schedule.
func (x *Index) PartitionCut(seed int64) []int {
	return x.ix.partitionCut(rand.New(rand.NewSource(seed)))
}
