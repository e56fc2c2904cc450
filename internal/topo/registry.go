package topo

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/layers"
	"repro/internal/learning"
	"repro/internal/netsim"
	"repro/internal/stp"
)

// Duration is the spec-file form of a time span (layers.Duration, where
// the protocol packages' config structs can reach it).
type Duration = layers.Duration

// Proto describes a bridging protocol to the builder. The config type C is
// the protocol's spec-file form as well: a struct whose exported fields
// carry json tags (Duration for time spans), decoded and encoded by the
// registry alone. Registering one is all it takes to make a protocol
// buildable by every harness: the builder, the fabric Spec codec and the
// cmds consult the registry instead of switching on known names, so
// out-of-tree variants plug in without touching this package.
type Proto[C any] struct {
	// Defaults fills unset (zero) fields of cfg field-wise. Optional: a
	// config whose zero values are its defaults has none.
	Defaults func(cfg C) C
	// Check rejects a defaulted cfg a bridge cannot run with, naming the
	// field by its spec key. Optional. It is what keeps a bad spec file an
	// error: constructors may panic on what Check lets through.
	Check func(cfg C) error
	// WarmUp returns the convergence budget for a fabric built with cfg
	// (STP needs its listening/learning delays; ARP-Path needs HELLOs).
	WarmUp func(cfg C) time.Duration
	// New constructs one bridge on net from a defaulted, checked cfg.
	New func(net *netsim.Network, name string, numID int, cfg C) Bridge
}

// Definition is a registered protocol behind its config type. Configs
// cross it as a *C in an any (Options.ProtocolConfig's form); handing it
// another protocol's config is a programming error and panics.
type Definition interface {
	// Decode is the one decode of a spec's config extension: strict JSON
	// (unknown keys and trailing data are errors; nil or empty raw selects
	// the registered defaults), then Resolve.
	Decode(raw []byte) (cfg any, err error)
	// Resolve defaults cfg (nil, or a possibly partial *C) field-wise into
	// a fresh *C and runs the protocol's Check on the result.
	Resolve(cfg any) (any, error)
	// Encode renders cfg as the canonical JSON extension.
	Encode(cfg any) ([]byte, error)
	// WarmUp is the convergence budget of a fabric built with cfg.
	WarmUp(cfg any) time.Duration
	// New constructs one bridge on net from a resolved cfg.
	New(net *netsim.Network, name string, numID int, cfg any) Bridge
}

// registered is the one Definition implementation, per config type.
type registered[C any] struct {
	name Protocol
	Proto[C]
}

func (r registered[C]) Decode(raw []byte) (any, error) {
	var c C
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&c); err != nil {
			return nil, err
		}
		// A config extension is a single JSON value; trailing data is a typo.
		if dec.More() {
			return nil, errors.New("trailing data after JSON value")
		}
	}
	return r.Resolve(&c)
}

func (r registered[C]) Resolve(cfg any) (any, error) {
	var c C
	if cfg != nil {
		c = *r.config(cfg)
	}
	if r.Defaults != nil {
		c = r.Defaults(c)
	}
	if r.Check != nil {
		if err := r.Check(c); err != nil {
			return nil, err
		}
	}
	return &c, nil
}

func (r registered[C]) config(cfg any) *C {
	c, ok := cfg.(*C)
	if !ok {
		panic(fmt.Sprintf("topo: protocol %q takes a %T config, got %T", r.name, c, cfg))
	}
	return c
}

func (r registered[C]) Encode(cfg any) ([]byte, error) { return json.Marshal(r.config(cfg)) }

func (r registered[C]) WarmUp(cfg any) time.Duration { return r.Proto.WarmUp(*r.config(cfg)) }

func (r registered[C]) New(net *netsim.Network, name string, numID int, cfg any) Bridge {
	return r.Proto.New(net, name, numID, *r.config(cfg))
}

var protocolRegistry = map[Protocol]Definition{}

// Register adds a protocol to the registry. It panics on a duplicate name,
// an incomplete Proto, or a config struct with an untagged exported field
// (the wire name must be declared, not inherited from the Go identifier,
// or a rename would silently change the spec format) — registration
// happens in init() where a panic is a build-time error.
func Register[C any](name Protocol, p Proto[C]) {
	if name == "" {
		panic("topo: Register with empty name")
	}
	if p.WarmUp == nil || p.New == nil {
		panic(fmt.Sprintf("topo: protocol %q registered without WarmUp/New", name))
	}
	if _, dup := protocolRegistry[name]; dup {
		panic(fmt.Sprintf("topo: protocol %q registered twice", name))
	}
	if t := reflect.TypeFor[C](); t.Kind() == reflect.Struct {
		for i := range t.NumField() {
			if f := t.Field(i); f.IsExported() && f.Tag.Get("json") == "" {
				panic(fmt.Sprintf("topo: protocol %q: config field %s.%s has no json tag", name, t, f.Name))
			}
		}
	}
	protocolRegistry[name] = registered[C]{name, p}
}

// LookupProtocol returns the named protocol's definition.
func LookupProtocol(name Protocol) (Definition, bool) {
	def, ok := protocolRegistry[name]
	return def, ok
}

// DecodeProtocol resolves a spec's protocol section: the registered
// definition plus the extension decoded, defaulted and checked. Every
// spec-driven build goes through here, so an unknown name, an unknown key
// and an unusable value all surface as one kind of error.
func DecodeProtocol(name Protocol, raw []byte) (Definition, any, error) {
	def, ok := LookupProtocol(name)
	if !ok {
		return nil, nil, fmt.Errorf("unknown protocol %q (registered: %v)", name, Protocols())
	}
	cfg, err := def.Decode(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("protocol %q config: %w", name, err)
	}
	return def, cfg, nil
}

// Protocols lists every registered protocol name, sorted.
func Protocols() []Protocol {
	names := make([]Protocol, 0, len(protocolRegistry))
	for name := range protocolRegistry {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	return names
}

func init() {
	Register(ARPPath, Proto[core.Config]{
		Defaults: core.Config.WithDefaults,
		Check:    core.Config.Check,
		WarmUp:   func(core.Config) time.Duration { return 10 * time.Millisecond },
		New: func(net *netsim.Network, name string, numID int, cfg core.Config) Bridge {
			return core.New(net, name, numID, cfg)
		},
	})
	Register(STP, Proto[stp.Timers]{
		Defaults: stp.Timers.WithDefaults,
		Check:    stp.Timers.Check,
		// Listening + learning on every port, plus hello propagation.
		WarmUp: func(t stp.Timers) time.Duration { return 2*t.ForwardDelay.D() + 5*t.Hello.D() },
		New: func(net *netsim.Network, name string, numID int, t stp.Timers) Bridge {
			return stp.New(net, name, numID, 0x8000, t)
		},
	})
	// The learning switch has no keys: its config is the empty object.
	Register(Learning, Proto[struct{}]{
		WarmUp: func(struct{}) time.Duration { return 10 * time.Millisecond },
		New: func(net *netsim.Network, name string, numID int, _ struct{}) Bridge {
			return learning.New(net, name, numID)
		},
	})
}
