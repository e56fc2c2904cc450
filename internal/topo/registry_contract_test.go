package topo_test

import (
	"strings"
	"testing"
	"time"

	_ "repro/internal/flowpath" // the All-Path variants register from their own package
	"repro/internal/netsim"
	"repro/internal/topo"
)

// wireDefaults is the canonical defaulted extension of every in-tree
// protocol, captured from the commit before the registry owned the codec
// (each protocol then hand-copied its config through a shadow struct):
// keys, key order and duration spelling are the spec wire format, and
// every committed spec, op-log header and golden depends on them.
var wireDefaults = map[topo.Protocol]string{
	"arppath":  `{"lock_timeout":"200ms"}`,
	"flowpath": `{}`,
	"learning": `{}`,
	"stp":      `{"hello":"2s","max_age":"20s","forward_delay":"15s","msg_age_increment":"1s","aging":"5m0s"}`,
	"tcppath":  `{}`,
}

// removedKeys are the keys each protocol's extension once carried and no
// longer does: their values are the core constants now, so a spec or an
// op-log header that still names one is refused as an unknown key.
var removedKeys = map[topo.Protocol][]string{
	"arppath":  {"learned_timeout", "repair_timeout", "repair_buffer", "proxy_timeout"},
	"flowpath": {"lock_timeout", "pair_timeout", "host_timeout", "repair_timeout", "repair_buffer"},
	"learning": {"aging", "table_capacity", "table_policy"},
	"tcppath":  {"conn_lock_timeout", "conn_timeout"},
}

// canonical is decode → defaults → check → encode, the registry's whole
// contract in one call.
func canonical(p topo.Protocol, raw string) (string, error) {
	var in []byte
	if raw != "" {
		in = []byte(raw)
	}
	def, cfg, err := topo.DecodeProtocol(p, in)
	if err != nil {
		return "", err
	}
	out, err := def.Encode(cfg)
	return string(out), err
}

// TestRegistryContract holds every registered protocol to the one codec:
// an absent or empty extension is the registered defaults, the decode is
// strict, a value the bridge could not run with is an error naming its
// key (never a constructor panic), and encode∘decode is a fixed point.
func TestRegistryContract(t *testing.T) {
	// rejected lists, per protocol, extensions the protocol's Check must
	// refuse, with the key the error has to name.
	rejected := map[topo.Protocol]map[string]string{
		"arppath": {
			`{"lock_timeout":"-1s"}`:     "lock_timeout",
			`{"table_capacity":-1}`:      "capacity",
			`{"table_capacity":8}`:       "policy",
			`{"table_policy":"fifo"}`:    "fifo",
			`{"lock_timeout":"quickly"}`: "quickly",
		},
		"stp": {
			`{"hello":"-1s"}`:             "hello",
			`{"max_age":"-1s"}`:           "max_age",
			`{"forward_delay":"-1s"}`:     "forward_delay",
			`{"msg_age_increment":"-1s"}`: "msg_age_increment",
			`{"aging":"-1s"}`:             "aging",
		},
		"flowpath": {
			`{"pair_capacity":-1}`:   "capacity",
			`{"pair_capacity":4}`:    "policy",
			`{"pair_policy":"fifo"}`: "fifo",
		},
		"tcppath": {
			`{"conn_capacity":-1}`:   "capacity",
			`{"conn_capacity":4}`:    "policy",
			`{"conn_policy":"fifo"}`: "fifo",
		},
	}
	for p, keys := range removedKeys {
		if rejected[p] == nil {
			rejected[p] = map[string]string{}
		}
		for _, key := range keys {
			rejected[p][`{"`+key+`":"-1s"}`] = `unknown field "` + key + `"`
			rejected[p][`{"`+key+`":1}`] = `unknown field "` + key + `"`
		}
	}
	if got := len(topo.Protocols()); got != len(wireDefaults) {
		t.Fatalf("%d protocols registered, wire pins for %d: pin the new one", got, len(wireDefaults))
	}
	for _, p := range topo.Protocols() {
		t.Run(string(p), func(t *testing.T) {
			defaults, err := canonical(p, "")
			if err != nil {
				t.Fatalf("nil extension: %v", err)
			}
			if defaults != wireDefaults[p] {
				t.Fatalf("wire format moved:\n got %s\nwant %s", defaults, wireDefaults[p])
			}
			for _, raw := range []string{`{}`, `null`, defaults} {
				if got, err := canonical(p, raw); err != nil || got != defaults {
					t.Errorf("extension %s: got %s, %v; want the defaults", raw, got, err)
				}
			}
			for raw, want := range map[string]string{
				`{"no_such_key":1}`: "no_such_key",
				`{} {}`:             "trailing",
				`[]`:                "array",
			} {
				if _, err := canonical(p, raw); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("extension %s: err %v, want one naming %q", raw, err, want)
				}
			}
			for raw, want := range rejected[p] {
				if _, err := canonical(p, raw); err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("extension %s: err %v, want one naming %q", raw, err, want)
				}
			}
		})
	}

	// A tuned extension survives the round trip, and re-encodes to itself.
	tuned := `{"lock_timeout":"50ms","proxy":true,"disable_repair":true,"table_capacity":16,"table_policy":"lru"}`
	once, err := canonical(topo.ARPPath, `{"table_policy":"lru","proxy":true,"lock_timeout":50000000,"disable_repair":true,"table_capacity":16}`)
	if err != nil || once != tuned {
		t.Fatalf("tuned extension: got %s, %v\nwant %s", once, err, tuned)
	}
	if twice, err := canonical(topo.ARPPath, once); err != nil || twice != once {
		t.Fatalf("encode∘decode is not a fixed point: %s → %s (%v)", once, twice, err)
	}
}

// TestRegisterRejectsUntaggedField pins the registration-time half of the
// contract: a config struct whose exported field inherits its wire name
// from the Go identifier does not register.
func TestRegisterRejectsUntaggedField(t *testing.T) {
	type untagged struct {
		Window topo.Duration `json:"window,omitempty"`
		Limit  int
	}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "Limit") {
			t.Fatalf("registration with an untagged field: recovered %v, want a panic naming Limit", r)
		}
		if _, ok := topo.LookupProtocol("untagged"); ok {
			t.Fatal("the rejected protocol is registered anyway")
		}
	}()
	topo.Register("untagged", topo.Proto[untagged]{
		Defaults: func(c untagged) untagged { return c },
		WarmUp:   func(untagged) time.Duration { return 0 },
		New:      func(*netsim.Network, string, int, untagged) topo.Bridge { return nil },
	})
}
