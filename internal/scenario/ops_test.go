package scenario

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// sampleOps covers every kind with representative parameters.
func sampleOps() []FaultOp {
	return []FaultOp{
		{At: 10 * time.Millisecond, Kind: OpLinkDown, Link: 3},
		{At: 60 * time.Millisecond, Kind: OpLinkUp, Link: 3},
		{At: 15 * time.Millisecond, Kind: OpBridgeRestart, Bridge: 1},
		{At: 20 * time.Millisecond, Kind: OpSetLoss, Link: 0, Side: 1, Rate: 0.35},
		{At: 90 * time.Millisecond, Kind: OpClearLoss, Link: 0, Side: 1},
		{At: 5 * time.Millisecond, Kind: OpBurst, Src: 2, Dst: 4, Port: 7001,
			Count: 1200, Interval: 8 * time.Microsecond, Payload: 1100},
		{At: 30 * time.Millisecond, Kind: OpHostMove, Host: 2},
		{At: 120 * time.Millisecond, Kind: OpHostReturn, Host: 2},
	}
}

// decodeOps decodes a schedule the way every reader does: json.Unmarshal
// into a slice, each op through FaultOp's strict codec.
func decodeOps(data []byte) ([]FaultOp, error) {
	var ops []FaultOp
	err := json.Unmarshal(data, &ops)
	return ops, err
}

// TestOpCodecRoundTrip pins that every kind survives encode → decode
// unchanged, and that encoding is canonical (stable bytes).
func TestOpCodecRoundTrip(t *testing.T) {
	ops := sampleOps()
	data, err := json.Marshal(ops)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := decodeOps(data)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("round trip changed ops:\n got %+v\nwant %+v", got, ops)
	}
	again, err := json.Marshal(got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(again) != string(data) {
		t.Fatalf("encoding not canonical:\n first %s\nsecond %s", data, again)
	}
}

// TestOpCodecGeneratedSchedules round-trips real generated schedules of
// every family on a real instance: whatever the generator can produce, the
// codec must carry.
func TestOpCodecGeneratedSchedules(t *testing.T) {
	for _, fam := range FaultFamilies() {
		cfg := Config{Seed: 5, Topology: "erdos-renyi", Faults: fam}.WithDefaults()
		plan := rand.New(rand.NewSource(cfg.Seed))
		built := buildFabric(cfg, plan)
		ix := NewIndex(built)
		burstPort := uint16(7000)
		ops := generateOps(fam, plan, ix, faultPhase, &burstPort)
		data, err := json.Marshal(ops)
		if err != nil {
			t.Fatalf("%s: encode: %v", fam, err)
		}
		got, err := decodeOps(data)
		if err != nil {
			t.Fatalf("%s: decode: %v\n%s", fam, err, data)
		}
		if len(ops) == 0 {
			if len(got) != 0 {
				t.Fatalf("%s: empty schedule decoded to %d ops", fam, len(got))
			}
			continue
		}
		if !reflect.DeepEqual(got, ops) {
			t.Fatalf("%s: round trip changed ops:\n got %+v\nwant %+v", fam, got, ops)
		}
	}
}

// TestOpCodecStrict rejects unknown fields, fields foreign to the kind,
// missing required fields, unknown kinds, an op without a kind and a key
// that matches a field only when case is ignored, each with its own text.
func TestOpCodecStrict(t *testing.T) {
	cases := []struct{ name, doc, want string }{
		{"unknown field", `[{"at":"1ms","kind":"link-down","link":0,"bogus":1}]`, `scenario op: json: unknown field "bogus"`},
		{"foreign field", `[{"at":"1ms","kind":"link-down","link":0,"rate":0.5}]`, `scenario op: field "rate" is not read by kind "link-down"`},
		{"missing field", `[{"at":"1ms","kind":"set-loss","link":0,"side":1}]`, `scenario op: kind "set-loss" requires field "rate"`},
		{"unknown kind", `[{"at":"1ms","kind":"melt-down","link":0}]`, `scenario op: scenario: unknown fault kind "melt-down"`},
		{"no kind", `[{"at":"1ms","link":3}]`, `scenario op: an op requires field "kind"`},
		{"null kind", `[{"at":"1ms","kind":null,"link":3}]`, `scenario op: an op requires field "kind"`},
		{"key in another case", `[{"at":"1ms","kind":"link-down","LINK":2}]`, `scenario op: json: unknown field "LINK"`},
	}
	for _, tc := range cases {
		if _, err := decodeOps([]byte(tc.doc)); err == nil || err.Error() != tc.want {
			t.Errorf("%s: %s decoded with err %v, want %q", tc.name, tc.doc, err, tc.want)
		}
	}
}

// opSamples is one wire value of each field some kind reads.
var opSamples = map[string]string{
	"link": "3", "side": "1", "rate": "0.35", "bridge": "1", "host": "2",
	"src": "2", "dst": "4", "port": "7001", "count": "1200", "interval": `"8µs"`, "payload": "1100",
}

// TestFaultKindTable holds the codec to the kind table: for every row, an
// op with every field it reads decodes and re-encodes to the same bytes;
// the same op with any other field is refused naming the field and the
// kind, and without any field it reads is refused naming both. The
// canonical lines of sampleOps are pinned byte for byte: they are the
// op-log's form.
func TestFaultKindTable(t *testing.T) {
	for _, f := range opFields[2:] {
		if _, ok := opSamples[f.name]; !ok {
			t.Fatalf("wire field %s has no opSamples value", f.name)
		}
	}
	for i := range faultKinds {
		k := &faultKinds[i]
		var order []int
		for _, name := range k.reads {
			order = append(order, fieldIndex(name))
		}
		if !slices.IsSorted(order) || slices.Contains(order, -1) {
			t.Errorf("kind %q reads %v, not wire fields in wire order", k.name, k.reads)
		}
		field := func(name string) string { return fmt.Sprintf(`,%q:%s`, name, opSamples[name]) }
		doc := func(skip, extra string) string {
			d := fmt.Sprintf(`{"at":"1ms","kind":%q`, k.name)
			for _, name := range k.reads {
				if name != skip {
					d += field(name)
				}
			}
			if extra != "" {
				d += field(extra)
			}
			return d + "}"
		}
		full := doc("", "")
		var op FaultOp
		if err := json.Unmarshal([]byte(full), &op); err != nil || op.Kind != FaultKind(i) {
			t.Errorf("%s: kind %d, err %v", full, op.Kind, err)
			continue
		}
		if got, err := json.Marshal(op); err != nil || string(got) != full {
			t.Errorf("%s re-encodes to %s, %v", full, got, err)
		}
		for _, f := range opFields[2:] {
			if slices.Contains(k.reads, f.name) {
				continue
			}
			want := fmt.Sprintf("scenario op: field %q is not read by kind %q", f.name, k.name)
			if err := json.Unmarshal([]byte(doc("", f.name)), &op); err == nil || err.Error() != want {
				t.Errorf("kind %q with %s set: err %v, want %q", k.name, f.name, err, want)
			}
		}
		for _, name := range k.reads {
			want := fmt.Sprintf("scenario op: kind %q requires field %q", k.name, name)
			if err := json.Unmarshal([]byte(doc(name, "")), &op); err == nil || err.Error() != want {
				t.Errorf("kind %q without %s: err %v, want %q", k.name, name, err, want)
			}
		}
	}
	want := []string{
		`{"at":"10ms","kind":"link-down","link":3}`,
		`{"at":"60ms","kind":"link-up","link":3}`,
		`{"at":"15ms","kind":"bridge-restart","bridge":1}`,
		`{"at":"20ms","kind":"set-loss","link":0,"side":1,"rate":0.35}`,
		`{"at":"90ms","kind":"clear-loss","link":0,"side":1}`,
		`{"at":"5ms","kind":"burst","src":2,"dst":4,"port":7001,"count":1200,"interval":"8µs","payload":1100}`,
		`{"at":"30ms","kind":"host-move","host":2}`,
		`{"at":"120ms","kind":"host-return","host":2}`,
	}
	if got, err := json.Marshal(sampleOps()); err != nil || string(got) != "["+strings.Join(want, ",")+"]" {
		t.Errorf("sampleOps encode to %s, %v; want %v", got, err, want)
	}
}

// TestFaultKindText pins the wire names — they are an op-log compatibility
// surface, not an implementation detail.
func TestFaultKindText(t *testing.T) {
	want := map[FaultKind]string{
		OpLinkDown: "link-down", OpLinkUp: "link-up",
		OpBridgeRestart: "bridge-restart",
		OpSetLoss:       "set-loss", OpClearLoss: "clear-loss",
		OpBurst:    "burst",
		OpHostMove: "host-move", OpHostReturn: "host-return",
	}
	for k, name := range want {
		b, err := k.MarshalText()
		if err != nil || string(b) != name {
			t.Errorf("kind %d marshals to %q, %v; want %q", k, b, err, name)
		}
		var back FaultKind
		if err := back.UnmarshalText([]byte(name)); err != nil || back != k {
			t.Errorf("%q unmarshals to %d, %v; want %d", name, back, err, k)
		}
	}
}

// TestIndexResolvesAndValidates exercises the exported Index against a
// built instance: the name lists are sorted (bridges in build order),
// Describe names the entities an op acts on, and Validate accepts a
// generated schedule while rejecting out-of-range and malformed ops.
func TestIndexResolvesAndValidates(t *testing.T) {
	cfg := Config{Seed: 3, Topology: "erdos-renyi", Faults: FaultsMixed}.WithDefaults()
	plan := rand.New(rand.NewSource(cfg.Seed))
	built := buildFabric(cfg, plan)
	x := NewIndex(built)

	if !slices.IsSorted(x.Links) || !slices.IsSorted(x.Hosts) || len(x.Links) != len(built.Links) || len(x.Hosts) != len(built.Hosts) {
		t.Fatalf("name lists not the sorted names: links %v, hosts %v", x.Links, x.Hosts)
	}
	for i, b := range built.Bridges {
		if x.Bridges[i] != b.Name() {
			t.Fatalf("Bridges[%d] = %q, want %q", i, x.Bridges[i], b.Name())
		}
	}
	if got, want := x.Describe(FaultOp{At: time.Millisecond, Kind: OpLinkDown, Link: 1}), "t=1ms link 1 down ("+x.Links[1]+")"; got != want {
		t.Fatalf("Describe = %q, want %q", got, want)
	}

	burstPort := uint16(7000)
	ops := generateOps(FaultsMixed, plan, x, faultPhase, &burstPort)
	for _, op := range ops {
		if err := x.Validate(op); err != nil {
			t.Fatalf("generated op %s rejected: %v", x.Describe(op), err)
		}
	}

	bad := []FaultOp{
		{Kind: OpLinkDown, Link: len(x.Links)},
		{Kind: OpBridgeRestart, Bridge: -1},
		{Kind: OpSetLoss, Link: 0, Side: 2, Rate: 0.5},
		{Kind: OpSetLoss, Link: 0, Side: 0, Rate: 1.5},
		{Kind: OpBurst, Src: 0, Dst: 0, Port: 1, Count: 10, Interval: time.Microsecond, Payload: 100},
		{Kind: OpBurst, Src: 0, Dst: 1, Port: 1, Count: 0, Interval: time.Microsecond, Payload: 100},
		{Kind: OpHostMove, Host: 0}, // no spare jacks on this build
		{At: -time.Millisecond, Kind: OpLinkDown, Link: 0},
	}
	for _, op := range bad {
		if err := x.Validate(op); err == nil {
			t.Errorf("invalid op %v validated clean", op)
		}
	}

	// PartitionCut is seeded and must return trunk indices crossing a cut.
	cut := x.PartitionCut(rand.New(rand.NewSource(42)))
	trunks := map[int]bool{}
	for _, li := range x.Trunks {
		trunks[li] = true
	}
	for _, li := range cut {
		if !trunks[li] {
			t.Fatalf("partition cut link %d is not a trunk", li)
		}
	}
	if again := x.PartitionCut(rand.New(rand.NewSource(42))); !reflect.DeepEqual(again, cut) {
		t.Fatalf("PartitionCut not deterministic: %v then %v", cut, again)
	}
}

// TestReplayAcceptsDecodedSchedule pins the codec end to end: a generated
// schedule that took a round trip through JSON replays to the same verdict
// and fingerprint as the original run.
func TestReplayAcceptsDecodedSchedule(t *testing.T) {
	cfg := Config{Seed: 7, Topology: "erdos-renyi", Faults: FaultsLinkFlaps}
	orig := Run(cfg)
	data, err := json.Marshal(orig.Ops)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	ops, err := decodeOps(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	rep := Replay(cfg, ops)
	if rep.Fingerprint != orig.Fingerprint || rep.Events != orig.Events {
		t.Fatalf("replay of decoded schedule diverged: fp %#x/%d events, want %#x/%d",
			rep.Fingerprint, rep.Events, orig.Fingerprint, orig.Events)
	}
	if rep.Failed() != orig.Failed() {
		t.Fatalf("replay verdict changed: %v vs %v", rep.Failed(), orig.Failed())
	}
}
