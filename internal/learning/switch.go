package learning

import (
	"errors"

	"repro/internal/bridge"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// Config tunes a learning switch. It exists mostly so the protocol
// registry can carry learning-switch settings the same way it carries
// ARP-Path and STP ones. The struct is also the spec-file form: the json
// tags are the wire names.
type Config struct {
	// Aging is the filtering-database aging time.
	Aging layers.Duration `json:"aging,omitempty"`
	// TableCapacity bounds the filtering database (0 = unbounded). A
	// bound requires TablePolicy. See DESIGN.md §12.
	TableCapacity int `json:"table_capacity,omitempty"`
	// TablePolicy selects the eviction policy for a bounded table:
	// "lru" or "clock" ("" / "timeout" is the unbounded baseline).
	TablePolicy string `json:"table_policy,omitempty"`
}

// DefaultConfig returns the standard aging time.
func DefaultConfig() Config { return Config{Aging: layers.Duration(DefaultAging)} }

// WithDefaults fills unset (zero) fields field-wise.
func (c Config) WithDefaults() Config {
	if c.Aging == 0 {
		c.Aging = layers.Duration(DefaultAging)
	}
	return c
}

// Check reports the first value a switch cannot run with, by its spec key
// (the registry's check on decoded specs; NewWithConfig panics on the
// same error).
func (c Config) Check() error {
	if c.Aging <= 0 {
		return errors.New("aging must be positive")
	}
	_, err := tables.ParseConfig(c.TableCapacity, c.TablePolicy)
	return err
}

// Stats counts forwarding decisions of a learning switch.
type Stats struct {
	Forwarded      uint64 // unicast hits sent out one port
	FloodedUnknown uint64 // unknown unicast floods
	FloodedGroup   uint64 // broadcast/multicast floods
	Filtered       uint64 // frames whose FIB entry pointed at the ingress port
}

// Switch is a plain IEEE 802.1D-style transparent learning bridge with no
// loop protection. On loop-free topologies it behaves like the demo's NIC
// bridges with STP converged; on looped topologies it melts down — which
// the tests demonstrate on purpose.
type Switch struct {
	bridge.Chassis
	fib   *Table
	stats Stats
}

// New creates a learning switch named name with the default aging time.
func New(net *netsim.Network, name string, numID int) *Switch {
	return NewWithConfig(net, name, numID, DefaultConfig())
}

// NewWithConfig creates a learning switch with an explicit configuration.
func NewWithConfig(net *netsim.Network, name string, numID int, cfg Config) *Switch {
	cfg = cfg.WithDefaults()
	if err := cfg.Check(); err != nil {
		panic("learning: " + err.Error())
	}
	bound, _ := tables.ParseConfig(cfg.TableCapacity, cfg.TablePolicy) // Check vetted it
	s := &Switch{}
	s.Init(net, name, numID, s)
	s.fib = NewBoundedTable(cfg.Aging.D(), bound)
	return s
}

// FIB exposes the forwarding table (tests and the STP baseline reuse it).
func (s *Switch) FIB() *Table { return s.fib }

// PathTables lists the filtering database behind the key-independent view.
func (s *Switch) PathTables() []tables.View { return []tables.View{s.fib} }

// OnStart implements bridge.Protocol.
func (s *Switch) OnStart() {}

// OnPortStatus implements bridge.Protocol: dead ports forget their hosts.
func (s *Switch) OnPortStatus(p *netsim.Port, up bool) {
	if !up {
		s.fib.FlushPort(p)
	}
}

// OnFrame implements bridge.Protocol: the whole decision runs on the
// frame's pre-decoded view and packed keys; nothing is parsed or copied.
//
//fabric:hotpath
func (s *Switch) OnFrame(in *netsim.Port, f *netsim.Frame) {
	now := s.Now()
	v := f.View()
	s.fib.LearnKey(v.SrcKey, in, now)
	if v.IsMulticast() {
		s.stats.FloodedGroup++
		s.FloodExcept(in, f)
		return
	}
	out, ok := s.fib.LookupKey(v.DstKey, now)
	switch {
	case !ok:
		s.stats.FloodedUnknown++
		s.FloodExcept(in, f)
	case out == in:
		// Destination is on the segment the frame came from: filter.
		s.stats.Filtered++
	default:
		s.stats.Forwarded++
		out.SendFrame(f)
	}
}

var _ bridge.Protocol = (*Switch)(nil)
var _ netsim.Node = (*Switch)(nil)
