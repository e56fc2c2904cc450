package flowpath

import (
	"encoding/binary"
	"time"

	"repro/internal/bridge"
	"repro/internal/core"
	"repro/internal/layers"
	"repro/internal/netsim"
	"repro/internal/tables"
)

// TCPConfig bounds a TCP-Path bridge's connection table; its timing is
// ARP-Path's (the core constants), and the fallback dataplane is a
// default ARP-Path bridge. The struct is also the spec-file form: the json
// tags are the wire names.
type TCPConfig struct {
	// ConnCapacity bounds the connection table (0 = unbounded). Per-
	// connection keys are where state grows fastest in the All-Path
	// family, so this is the bound that bites first. See DESIGN.md §12.
	ConnCapacity int `json:"conn_capacity,omitempty"`
	// ConnPolicy is the connection-table eviction policy: "lru" or
	// "clock" ("" / "timeout" is the unbounded baseline).
	ConnPolicy string `json:"conn_policy,omitempty"`
}

// Check reports a bound a bridge cannot run with, by its spec key (the
// registry's check on decoded specs; NewTCPPath panics on the same
// error).
func (c TCPConfig) Check() error {
	_, err := tables.ParseConfig(c.ConnCapacity, c.ConnPolicy)
	return err
}

// TCPPath is a TCP-Path bridge: per-TCP-connection paths keyed by the
// 4-tuple, established by flooding the connection's opening SYN exactly
// like an ARP discovery (first copy locks the reverse path, duplicates
// race-dropped, the SYN|ACK confirms hop by hop) — so each connection
// races its own path under the congestion of the moment, the study's load
// balancing axis. Everything that is not TCP, and any segment whose
// connection has no entry and is not an opener, falls back to the
// embedded, unmodified ARP-Path dataplane.
type TCPPath struct {
	*core.Bridge
	conns *PairTable
}

// NewTCPPath creates a TCP-Path bridge.
func NewTCPPath(net *netsim.Network, name string, numID int, cfg TCPConfig) *TCPPath {
	if err := cfg.Check(); err != nil {
		panic("flowpath: " + err.Error())
	}
	bound, _ := tables.ParseConfig(cfg.ConnCapacity, cfg.ConnPolicy) // Check vetted it
	t := &TCPPath{
		// Connection keys pack IPs and TCP ports, not MACs: no junk-key
		// guard (a zero half is a legal tuple encoding).
		conns: NewBoundedPairTable(core.DefaultLockTimeout, core.LearnedTimeout, bound, false),
	}
	// The chassis dispatches to t; t consumes TCP segments and delegates
	// the rest to the embedded ARP-Path protocol.
	t.Bridge = core.NewWithProtocol(net, name, numID, core.DefaultConfig(), t)
	return t
}

// connKey packs a directed 4-tuple into a PairKey: exact, no hashing.
func connKey(v *layers.FrameView) PairKey {
	return PairKey{
		Hi: uint64(binary.BigEndian.Uint32(v.IPSrc[:]))<<32 | uint64(binary.BigEndian.Uint32(v.IPDst[:])),
		Lo: uint64(v.TCPSrcPort)<<16 | uint64(v.TCPDstPort),
	}
}

// reverseKey is the opposite direction's key.
func reverseKey(k PairKey) PairKey {
	return PairKey{
		Hi: k.Hi<<32 | k.Hi>>32,
		Lo: k.Lo<<16&0xFFFF0000 | k.Lo>>16&0xFFFF,
	}
}

// Conns exposes the connection table (experiments, tests).
func (t *TCPPath) Conns() *PairTable { return t.conns }

// PathTables lists the bounded connection table, then the ARP-Path table.
func (t *TCPPath) PathTables() []tables.View { return []tables.View{t.conns, t.Table()} }

// OnPortStatus implements bridge.Protocol: flush connections through the
// dead link, then let ARP-Path flush its own table.
func (t *TCPPath) OnPortStatus(p *netsim.Port, up bool) {
	if !up {
		t.Count().EntriesPurged += uint64(t.conns.FlushPort(p))
	}
	t.Bridge.OnPortStatus(p, up)
}

// Restart clears the connection table along with everything ARP-Path
// loses in a power-cycle.
func (t *TCPPath) Restart() {
	t.conns.Reset()
	t.Bridge.Restart()
}

// OnFrame implements bridge.Protocol.
//
//fabric:hotpath
func (t *TCPPath) OnFrame(in *netsim.Port, f *netsim.Frame) {
	v := f.View()
	if !v.HasTCP || v.IsMulticast() {
		t.Bridge.OnFrame(in, f)
		return
	}
	t.handleTCP(in, f, v)
}

// handleTCP is the per-connection dataplane.
//
//fabric:hotpath
func (t *TCPPath) handleTCP(in *netsim.Port, f *netsim.Frame, v *layers.FrameView) {
	now := t.Now()
	k := connKey(v)

	if v.IsTCPSYN() {
		t.handleSYN(in, f, v, k, now)
		return
	}

	if ref, e, ok := t.conns.Find(k, now); ok {
		if e.Port == in || t.SameNeighbor(e.Port, in) {
			// Hairpin on the connection entry: let ARP-Path decide (it
			// has its own hairpin/repair handling for the MAC pair).
			t.Count().Fallbacks++
			t.Bridge.OnFrame(in, f)
			return
		}
		if v.TCPFlags&(layers.TCPFlagSYN|layers.TCPFlagACK) == layers.TCPFlagSYN|layers.TCPFlagACK {
			// The SYN|ACK confirms the connection path hop by hop: its
			// own direction out the locked port, the opener's direction
			// back where it arrived.
			t.conns.Learn(k, e.Port, now)
			t.conns.Learn(reverseKey(k), in, now)
			t.Count().ConnConfirmed++
		} else {
			t.conns.RefreshAt(ref, now)
		}
		t.Count().ConnForwarded++
		e.Port.SendFrame(f)
		return
	}

	// No connection entry (expired, flushed, or a mid-stream segment of a
	// connection opened before a restart): ARP-Path semantics.
	t.Count().Fallbacks++
	t.Bridge.OnFrame(in, f)
}

// handleSYN floods a connection opener with the ARP-Path race applied to
// the connection key: the first copy locks the reverse direction (the
// path the SYN|ACK will retrace) to its arrival port, duplicates are
// filtered, and the flood terminates at the destination's edge bridge.
//
//fabric:hotpath
func (t *TCPPath) handleSYN(in *netsim.Port, f *netsim.Frame, v *layers.FrameView, k PairKey, now time.Duration) {
	// A SYN always opens a race: a retransmitted opener on the bound port
	// restarts the window, a copy from elsewhere outside it relocks.
	if t.conns.Race(reverseKey(k), in, now, true) == tables.RaceLost {
		// A slower flood copy: discard (§2.1.1 on the connection).
		t.Count().SynRaceDrops++
		return
	}

	// The embedded ARP-Path table knows the destination from the ARP
	// exchange that necessarily preceded the connection; an edge entry
	// for it terminates the flood here.
	if e, ok := t.EntryFor(v.Dst); ok && t.IsEdge(e.Port) && e.Port != in {
		// The destination hangs off this bridge: deliver the first copy
		// and pre-learn the opener's direction — the SYN|ACK will confirm
		// the rest of the path.
		t.conns.Learn(k, e.Port, now)
		t.Count().SynDelivered++
		e.Port.SendFrame(f)
		return
	}
	t.Count().SynFloods++
	t.FloodExcept(in, f)
}

var _ bridge.Protocol = (*TCPPath)(nil)
var _ netsim.Node = (*TCPPath)(nil)
