package scenario

import (
	"encoding/json"
	"math/rand"
	"reflect"
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

// TestOpCodecRoundTrip pins that every kind survives encode → decode
// unchanged, and that encoding is canonical (stable bytes).
func TestOpCodecRoundTrip(t *testing.T) {
	ops := sampleOps()
	data, err := EncodeOps(ops)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeOps(data)
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("round trip changed ops:\n got %+v\nwant %+v", got, ops)
	}
	again, err := EncodeOps(got)
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
		ix := newNetIndex(built)
		burstPort := uint16(7000)
		ops := generateOps(fam, plan, ix, cfg.FaultPhase, &burstPort)
		data, err := EncodeOps(ops)
		if err != nil {
			t.Fatalf("%s: encode: %v", fam, err)
		}
		got, err := DecodeOps(data)
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
// missing required fields, and unknown kinds.
func TestOpCodecStrict(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"unknown field", `[{"at":"1ms","kind":"link-down","link":0,"bogus":1}]`},
		{"foreign field", `[{"at":"1ms","kind":"link-down","link":0,"rate":0.5}]`},
		{"missing field", `[{"at":"1ms","kind":"set-loss","link":0,"side":1}]`},
		{"unknown kind", `[{"at":"1ms","kind":"melt-down","link":0}]`},
		{"trailing data", `[] []`},
	}
	for _, tc := range cases {
		if _, err := DecodeOps([]byte(tc.doc)); err == nil {
			t.Errorf("%s: decoded without error: %s", tc.name, tc.doc)
		}
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
// built instance: name lookups invert the name lists, Describe matches the
// internal renderer, and Validate accepts a generated schedule while
// rejecting out-of-range and malformed ops.
func TestIndexResolvesAndValidates(t *testing.T) {
	cfg := Config{Seed: 3, Topology: "erdos-renyi", Faults: FaultsMixed}.WithDefaults()
	plan := rand.New(rand.NewSource(cfg.Seed))
	built := buildFabric(cfg, plan)
	x := NewIndex(built)

	for i, name := range x.Links() {
		if j, ok := x.LinkIndex(name); !ok || j != i {
			t.Fatalf("LinkIndex(%q) = %d,%v; want %d,true", name, j, ok, i)
		}
	}
	for i, name := range x.Hosts() {
		if j, ok := x.HostIndex(name); !ok || j != i {
			t.Fatalf("HostIndex(%q) = %d,%v; want %d,true", name, j, ok, i)
		}
	}
	for i, name := range x.Bridges() {
		if j, ok := x.BridgeIndex(name); !ok || j != i {
			t.Fatalf("BridgeIndex(%q) = %d,%v; want %d,true", name, j, ok, i)
		}
	}
	if _, ok := x.LinkIndex("no-such-link"); ok {
		t.Fatal("LinkIndex resolved a nonexistent name")
	}

	burstPort := uint16(7000)
	ops := generateOps(FaultsMixed, plan, x.ix, cfg.FaultPhase, &burstPort)
	for _, op := range ops {
		if err := x.Validate(op); err != nil {
			t.Fatalf("generated op %s rejected: %v", x.Describe(op), err)
		}
	}

	bad := []FaultOp{
		{Kind: OpLinkDown, Link: len(x.Links())},
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
	cut := x.PartitionCut(42)
	trunks := map[int]bool{}
	for _, li := range x.Trunks() {
		trunks[li] = true
	}
	for _, li := range cut {
		if !trunks[li] {
			t.Fatalf("partition cut link %d is not a trunk", li)
		}
	}
	if again := x.PartitionCut(42); !reflect.DeepEqual(again, cut) {
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
	ops, err := DecodeOps(data)
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
