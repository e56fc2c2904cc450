package learning

import (
	"repro/internal/bridge"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// Stats counts forwarding decisions of a learning switch.
type Stats struct {
	Forwarded      uint64 // unicast hits sent out one port
	FloodedUnknown uint64 // unknown unicast floods
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

// New creates a learning switch named name with the default aging time
// and an unbounded filtering database.
func New(net *netsim.Network, name string, numID int) *Switch {
	s := &Switch{}
	s.Init(net, name, numID, s)
	s.fib = NewTable(DefaultAging)
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
