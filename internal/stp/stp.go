// Package stp implements the IEEE 802.1D spanning tree protocol baseline
// the paper's demo compares ARP-Path against (§3.1): config BPDU exchange,
// root election, port roles and states with listening/learning delays,
// message-age expiry, and topology-change notification with fast FIB aging.
// Forwarding is a learning switch constrained to forwarding-state ports.
//
// The demo ran Linux bridge_utils STP on the NIC bridges and NetFPPGA
// bridges; this package reproduces that behaviour including the slow
// reconvergence (max-age plus twice forward-delay) that the Figure 3
// experiment contrasts with ARP-Path repair.
package stp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/bridge"
	"repro/internal/layers"
	"repro/internal/learning"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tables"
)

// Timers groups the 802.1D protocol timers. The struct is also the
// protocol's spec-file form: the json tags are the wire names.
type Timers struct {
	Hello        layers.Duration `json:"hello,omitempty"`
	MaxAge       layers.Duration `json:"max_age,omitempty"`
	ForwardDelay layers.Duration `json:"forward_delay,omitempty"`
	// MsgAgeIncrement is added to the message age at each relay hop.
	MsgAgeIncrement layers.Duration `json:"msg_age_increment,omitempty"`
	// Aging is the normal filtering-database aging time.
	Aging layers.Duration `json:"aging,omitempty"`
}

// DefaultTimers returns the standard's default values, as used by the
// demo's Linux bridges.
func DefaultTimers() Timers {
	return Timers{
		Hello:           layers.Duration(2 * time.Second),
		MaxAge:          layers.Duration(20 * time.Second),
		ForwardDelay:    layers.Duration(15 * time.Second),
		MsgAgeIncrement: layers.Duration(time.Second),
		Aging:           layers.Duration(learning.DefaultAging),
	}
}

// WithDefaults fills every unset (zero) timer with its standard default,
// field by field: tuning only MaxAge no longer silently discards the
// adjustment because Hello was left zero.
func (t Timers) WithDefaults() Timers {
	d := DefaultTimers()
	if t.Hello == 0 {
		t.Hello = d.Hello
	}
	if t.MaxAge == 0 {
		t.MaxAge = d.MaxAge
	}
	if t.ForwardDelay == 0 {
		t.ForwardDelay = d.ForwardDelay
	}
	if t.MsgAgeIncrement == 0 {
		t.MsgAgeIncrement = d.MsgAgeIncrement
	}
	if t.Aging == 0 {
		t.Aging = d.Aging
	}
	return t
}

// Check reports the first timer a bridge cannot run with, by its spec key:
// every one of them arms a timer or ages a table, so each must be
// positive. The registry runs it on decoded specs.
func (t Timers) Check() error {
	switch {
	case t.Hello <= 0:
		return errors.New("hello must be positive")
	case t.MaxAge <= 0:
		return errors.New("max_age must be positive")
	case t.ForwardDelay <= 0:
		return errors.New("forward_delay must be positive")
	case t.MsgAgeIncrement <= 0:
		return errors.New("msg_age_increment must be positive")
	case t.Aging <= 0:
		return errors.New("aging must be positive")
	}
	return nil
}

// FastTimers returns a 10x-accelerated profile for the repair-ablation
// experiment (T4): the fastest STP can legally be tuned, still orders of
// magnitude slower than ARP-Path repair.
func FastTimers() Timers {
	return Timers{
		Hello:           layers.Duration(200 * time.Millisecond),
		MaxAge:          layers.Duration(2 * time.Second),
		ForwardDelay:    layers.Duration(1500 * time.Millisecond),
		MsgAgeIncrement: layers.Duration(100 * time.Millisecond),
		Aging:           layers.Duration(30 * time.Second),
	}
}

// PortRole is the spanning-tree role assigned to a port.
type PortRole uint8

// Port roles.
const (
	RoleDesignated PortRole = iota
	RoleRoot
	RoleBlocked
)

// String names the role.
func (r PortRole) String() string {
	switch r {
	case RoleDesignated:
		return "designated"
	case RoleRoot:
		return "root"
	case RoleBlocked:
		return "blocked"
	default:
		return "role(?)"
	}
}

// PortState is the 802.1D port state.
type PortState uint8

// Port states, in transition order.
const (
	StateDisabled PortState = iota
	StateBlocking
	StateListening
	StateLearning
	StateForwarding
)

// String names the state.
func (s PortState) String() string {
	switch s {
	case StateDisabled:
		return "disabled"
	case StateBlocking:
		return "blocking"
	case StateListening:
		return "listening"
	case StateLearning:
		return "learning"
	case StateForwarding:
		return "forwarding"
	default:
		return "state(?)"
	}
}

// Stats counts protocol and dataplane events.
type Stats struct {
	ConfigTx, ConfigRx uint64
	TCNTx, TCNRx       uint64
	Forwarded          uint64
	Flooded            uint64
	Filtered           uint64
	DiscardedByState   uint64
}

// priorityVector is the 802.1D comparison vector; lower is better.
type priorityVector struct {
	rootID   layers.BridgeID
	cost     uint32
	senderID layers.BridgeID
	portID   uint16
}

// better reports whether a beats b.
func (a priorityVector) better(b priorityVector) bool {
	if a.rootID != b.rootID {
		return a.rootID < b.rootID
	}
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.senderID != b.senderID {
		return a.senderID < b.senderID
	}
	return a.portID < b.portID
}

// port is the per-port protocol state.
type port struct {
	np    *netsim.Port
	id    uint16
	cost  uint32
	role  PortRole
	state PortState

	info       priorityVector // best config received here
	infoValid  bool
	infoAge    time.Duration // message age at storage time
	infoTC     bool          // TC flag of the stored config
	infoExpiry *sim.Timer

	transition *sim.Timer // pending state progression
	tcaPending bool       // set TCA on next config out this port
}

// Bridge is an 802.1D bridge.
type Bridge struct {
	bridge.Chassis
	id     layers.BridgeID
	timers Timers
	fib    *learning.Table
	ports  map[*netsim.Port]*port
	plist  []*port // cabling order, for deterministic iteration

	rootID   layers.BridgeID
	rootCost uint32
	rootPort *port // nil when this bridge is root

	helloTimer *sim.Timer
	tcnTimer   *sim.Timer // TCN retransmission while unacknowledged
	tcDeadline time.Duration
	fastAging  bool
	stopped    bool

	stats Stats
}

// New creates an STP bridge with the given priority (lower wins root
// election; 0x8000 is the standard default, making the election fall to
// the lowest MAC — the paper's "tree rooted at an arbitrary switch").
func New(net *netsim.Network, name string, numID int, priority uint16, timers Timers) *Bridge {
	b := &Bridge{
		timers: timers,
		fib:    learning.NewTable(timers.Aging.D()),
		ports:  make(map[*netsim.Port]*port),
	}
	b.Init(net, name, numID, b)
	b.id = layers.MakeBridgeID(priority, b.MAC())
	b.rootID = b.id
	return b
}

// ID returns the bridge identifier.
func (b *Bridge) ID() layers.BridgeID { return b.id }

// FIB exposes the forwarding table.
func (b *Bridge) FIB() *learning.Table { return b.fib }

// PathTables lists the filtering database behind the key-independent view.
func (b *Bridge) PathTables() []tables.View { return []tables.View{b.fib} }

// Stats returns a snapshot of the counters.
func (b *Bridge) Stats() Stats { return b.stats }

// IsRoot reports whether this bridge currently believes it is the root.
func (b *Bridge) IsRoot() bool { return b.rootID == b.id }

// RootID returns the believed root bridge ID.
func (b *Bridge) RootID() layers.BridgeID { return b.rootID }

// RootCost returns the believed cost to the root.
func (b *Bridge) RootCost() uint32 { return b.rootCost }

// Role returns the spanning-tree role of p.
func (b *Bridge) Role(p *netsim.Port) PortRole { return b.ports[p].role }

// State returns the 802.1D state of p.
func (b *Bridge) State(p *netsim.Port) PortState { return b.ports[p].state }

// costFor maps a link rate to the 802.1D-1998 recommended path cost.
func costFor(rate int64) uint32 {
	switch {
	case rate >= 10_000_000_000:
		return 2
	case rate >= 1_000_000_000:
		return 4
	case rate >= 100_000_000:
		return 19
	case rate >= 10_000_000:
		return 100
	default:
		return 250
	}
}

// OnStart implements bridge.Protocol: assume root, open all ports.
func (b *Bridge) OnStart() {
	for i, np := range b.Ports() {
		sp := &port{
			np:   np,
			id:   uint16(0x80)<<8 | uint16(i+1),
			cost: costFor(np.Link().Config().Rate),
		}
		b.ports[np] = sp
		b.plist = append(b.plist, sp)
		if np.Up() {
			sp.state = StateBlocking
		} else {
			sp.state = StateDisabled
		}
	}
	b.recompute()
	b.helloTick()
}

// helloTick originates configs if root, then reschedules itself.
func (b *Bridge) helloTick() {
	if b.stopped {
		return
	}
	if b.IsRoot() {
		b.txAllDesignated()
	}
	b.helloTimer = b.After(b.timers.Hello.D(), b.helloTick)
}

// Stop quiesces the bridge: periodic timers are cancelled and incoming
// BPDUs no longer arm new ones, so a drained simulation terminates. Used
// by tests; a stopped bridge keeps forwarding data frames.
func (b *Bridge) Stop() {
	b.stopped = true
	if b.helloTimer != nil {
		b.helloTimer.Stop()
	}
	if b.tcnTimer != nil {
		b.tcnTimer.Stop()
	}
	for _, sp := range b.plist {
		if sp.transition != nil {
			sp.transition.Stop()
		}
		if sp.infoExpiry != nil {
			sp.infoExpiry.Stop()
		}
	}
}

// OnPortStatus implements bridge.Protocol.
func (b *Bridge) OnPortStatus(np *netsim.Port, up bool) {
	sp := b.ports[np]
	if sp == nil { // link event before OnStart; OnStart will see Up()
		return
	}
	wasForwarding := sp.state == StateForwarding
	sp.infoValid = false
	if sp.infoExpiry != nil {
		sp.infoExpiry.Stop()
	}
	if sp.transition != nil {
		sp.transition.Stop()
	}
	if up {
		sp.state = StateBlocking
	} else {
		sp.state = StateDisabled
		b.fib.FlushPort(np)
	}
	b.recompute()
	if wasForwarding && !up {
		b.topologyChange()
	}
}

// OnFrame implements bridge.Protocol.
func (b *Bridge) OnFrame(in *netsim.Port, f *netsim.Frame) {
	v := f.View()
	if v.EtherType == layers.EtherTypeBPDU && v.Dst == layers.BPDUMulticast {
		b.handleBPDU(in, f)
		return
	}
	b.forward(in, f)
}

// forward is the state-gated learning dataplane, running entirely on the
// frame's pre-decoded view.
func (b *Bridge) forward(in *netsim.Port, f *netsim.Frame) {
	sp := b.ports[in]
	if sp == nil {
		return
	}
	now := b.Now()
	v := f.View()
	b.maybeRestoreAging(now)
	switch sp.state {
	case StateLearning:
		b.fib.LearnKey(v.SrcKey, in, now)
		b.stats.DiscardedByState++
		return
	case StateForwarding:
		b.fib.LearnKey(v.SrcKey, in, now)
	default:
		b.stats.DiscardedByState++
		return
	}
	if v.IsMulticast() {
		b.stats.Flooded++
		b.floodForwarding(in, f)
		return
	}
	out, ok := b.fib.LookupKey(v.DstKey, now)
	if ok && b.ports[out] != nil && b.ports[out].state != StateForwarding {
		ok = false // stale binding behind a non-forwarding port
	}
	switch {
	case !ok:
		b.stats.Flooded++
		b.floodForwarding(in, f)
	case out == in:
		b.stats.Filtered++
	default:
		b.stats.Forwarded++
		out.SendFrame(f)
	}
}

// floodForwarding sends f on every forwarding port except in.
func (b *Bridge) floodForwarding(in *netsim.Port, f *netsim.Frame) {
	for _, sp := range b.plist {
		if sp.np != in && sp.state == StateForwarding && sp.np.Up() {
			sp.np.SendFrame(f)
		}
	}
}

// handleBPDU processes a received BPDU. BPDUs are consumed, never
// forwarded, so decoding from the borrowed frame here is safe.
func (b *Bridge) handleBPDU(in *netsim.Port, f *netsim.Frame) {
	sp := b.ports[in]
	if sp == nil || sp.state == StateDisabled || b.stopped {
		return
	}
	var eth layers.Ethernet
	var bpdu layers.BPDU
	if eth.DecodeFromBytes(f.Bytes()) != nil || bpdu.DecodeFromBytes(eth.Payload()) != nil {
		return
	}
	if bpdu.Type == layers.BPDUTypeTCN {
		b.stats.TCNRx++
		if sp.role == RoleDesignated {
			sp.tcaPending = true
			b.txConfig(sp) // immediate ack
			b.propagateTC()
		}
		return
	}
	b.stats.ConfigRx++
	recv := priorityVector{bpdu.RootID, bpdu.RootCost, bpdu.SenderID, bpdu.PortID}
	stored := sp.info
	if !sp.infoValid || recv.better(stored) || (recv.senderID == stored.senderID && recv.portID == stored.portID) {
		// Superior info, or a refresh from the same designated port.
		sp.info = recv
		sp.infoValid = true
		sp.infoAge = bpdu.MessageAge
		sp.infoTC = bpdu.Flags&layers.BPDUFlagTopologyChange != 0
		b.armInfoExpiry(sp, bpdu.MessageAge, bpdu.MaxAge)
		b.recompute()
		if sp == b.rootPort {
			if bpdu.Flags&layers.BPDUFlagTopologyChangeAck != 0 && b.tcnTimer != nil {
				b.tcnTimer.Stop()
				b.tcnTimer = nil
			}
			if sp.infoTC {
				b.enterFastAging()
			} else {
				b.maybeRestoreAging(b.Now())
			}
			// Relay through to our designated ports.
			b.txAllDesignated()
		}
		return
	}
	// Inferior config on a designated port: reassert ourselves.
	if sp.role == RoleDesignated {
		b.txConfig(sp)
	}
}

// armInfoExpiry (re)starts the message-age expiry for stored port info.
func (b *Bridge) armInfoExpiry(sp *port, msgAge, maxAge time.Duration) {
	if sp.infoExpiry != nil {
		sp.infoExpiry.Stop()
	}
	if maxAge <= 0 {
		maxAge = b.timers.MaxAge.D()
	}
	life := maxAge - msgAge
	if life <= 0 {
		life = b.timers.MsgAgeIncrement.D()
	}
	sp.infoExpiry = b.After(life, func() {
		// The designated bridge behind this port went silent for max-age:
		// discard its information and re-run the election. Any port that
		// reaches forwarding as a result triggers the topology-change
		// machinery from enterState.
		sp.infoValid = false
		b.recompute()
		if b.IsRoot() {
			b.txAllDesignated()
		}
	})
}

// recompute runs root election and role assignment, then drives the port
// state machines.
func (b *Bridge) recompute() {
	// Root election.
	b.rootID = b.id
	b.rootCost = 0
	b.rootPort = nil
	var bestVec priorityVector
	for _, sp := range b.plist {
		if !sp.infoValid || sp.state == StateDisabled {
			continue
		}
		cand := priorityVector{sp.info.rootID, sp.info.cost + sp.cost, sp.info.senderID, sp.info.portID}
		if cand.rootID < b.id {
			if b.rootPort == nil || cand.better(bestVec) ||
				(cand == bestVec && sp.id < b.rootPort.id) {
				bestVec = cand
				b.rootPort = sp
			}
		}
	}
	if b.rootPort != nil {
		b.rootID = bestVec.rootID
		b.rootCost = bestVec.cost
	}

	// Role assignment.
	for _, sp := range b.plist {
		if sp.state == StateDisabled {
			continue
		}
		var role PortRole
		switch {
		case sp == b.rootPort:
			role = RoleRoot
		case !sp.infoValid:
			role = RoleDesignated
		default:
			ours := priorityVector{b.rootID, b.rootCost, b.id, sp.id}
			if ours.better(sp.info) {
				role = RoleDesignated
			} else {
				role = RoleBlocked
			}
		}
		b.setRole(sp, role)
	}
}

// setRole applies a role and advances the state machine accordingly.
func (b *Bridge) setRole(sp *port, role PortRole) {
	sp.role = role
	if role == RoleBlocked {
		if sp.state != StateBlocking {
			wasForwarding := sp.state == StateForwarding
			sp.state = StateBlocking
			if sp.transition != nil {
				sp.transition.Stop()
			}
			b.fib.FlushPort(sp.np)
			if wasForwarding {
				b.topologyChange()
			}
		}
		return
	}
	// Root or designated: progress toward forwarding.
	if sp.state == StateBlocking {
		b.enterState(sp, StateListening)
	}
}

// enterState sets a port state and schedules the next transition.
func (b *Bridge) enterState(sp *port, st PortState) {
	sp.state = st
	if sp.transition != nil {
		sp.transition.Stop()
		sp.transition = nil
	}
	switch st {
	case StateListening:
		sp.transition = b.After(b.timers.ForwardDelay.D(), func() {
			b.enterState(sp, StateLearning)
		})
	case StateLearning:
		sp.transition = b.After(b.timers.ForwardDelay.D(), func() {
			b.enterState(sp, StateForwarding)
		})
	case StateForwarding:
		b.topologyChange()
	}
}

// topologyChange reacts to a detected topology change per 802.1D §8.8.
func (b *Bridge) topologyChange() {
	if b.stopped {
		return
	}
	if b.IsRoot() {
		b.tcDeadline = b.Now() + b.timers.MaxAge.D() + b.timers.ForwardDelay.D()
		b.enterFastAging()
		return
	}
	// Notify the root via TCN on the root port, retransmitting each hello
	// until acknowledged.
	if b.tcnTimer != nil {
		b.tcnTimer.Stop()
	}
	var send func()
	send = func() {
		b.txTCN()
		b.tcnTimer = b.After(b.timers.Hello.D(), send)
	}
	send()
}

// propagateTC pushes a received TCN toward the root.
func (b *Bridge) propagateTC() {
	b.topologyChange()
}

// enterFastAging shortens FIB aging for the TC period.
func (b *Bridge) enterFastAging() {
	now := b.Now()
	if deadline := now + b.timers.MaxAge.D() + b.timers.ForwardDelay.D(); deadline > b.tcDeadline {
		b.tcDeadline = deadline
	}
	if !b.fastAging {
		b.fastAging = true
		b.fib.SetAging(b.timers.ForwardDelay.D())
		b.fib.FlushExpired(now)
	}
}

// maybeRestoreAging returns to normal aging once the TC period lapses.
func (b *Bridge) maybeRestoreAging(now time.Duration) {
	if b.fastAging && now >= b.tcDeadline {
		b.fastAging = false
		b.fib.SetAging(b.timers.Aging.D())
	}
}

// txAllDesignated transmits a config BPDU on every designated port.
func (b *Bridge) txAllDesignated() {
	for _, sp := range b.plist {
		if sp.role == RoleDesignated && sp.state != StateDisabled {
			b.txConfig(sp)
		}
	}
}

// txConfig transmits one config BPDU on sp.
func (b *Bridge) txConfig(sp *port) {
	var flags uint8
	if sp.tcaPending {
		flags |= layers.BPDUFlagTopologyChangeAck
		sp.tcaPending = false
	}
	msgAge := time.Duration(0)
	if !b.IsRoot() {
		if b.rootPort != nil {
			msgAge = b.rootPort.infoAge + b.timers.MsgAgeIncrement.D()
		}
		if b.rootPort != nil && b.rootPort.infoTC {
			flags |= layers.BPDUFlagTopologyChange
		}
	} else if b.Now() < b.tcDeadline {
		flags |= layers.BPDUFlagTopologyChange
	}
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: layers.BPDUMulticast, Src: b.MAC(), EtherType: layers.EtherTypeBPDU},
		&layers.BPDU{
			Type:         layers.BPDUTypeConfig,
			Flags:        flags,
			RootID:       b.rootID,
			RootCost:     b.rootCost,
			SenderID:     b.id,
			PortID:       sp.id,
			MessageAge:   msgAge,
			MaxAge:       b.timers.MaxAge.D(),
			HelloTime:    b.timers.Hello.D(),
			ForwardDelay: b.timers.ForwardDelay.D(),
		},
	)
	if err != nil {
		panic(fmt.Sprintf("stp: serialize config BPDU: %v", err))
	}
	b.stats.ConfigTx++
	sp.np.Send(frame)
}

// txTCN transmits a TCN BPDU on the root port.
func (b *Bridge) txTCN() {
	if b.rootPort == nil {
		return
	}
	frame, err := layers.Serialize(
		&layers.Ethernet{Dst: layers.BPDUMulticast, Src: b.MAC(), EtherType: layers.EtherTypeBPDU},
		&layers.BPDU{Type: layers.BPDUTypeTCN},
	)
	if err != nil {
		panic(fmt.Sprintf("stp: serialize TCN: %v", err))
	}
	b.stats.TCNTx++
	b.rootPort.np.Send(frame)
}

var _ bridge.Protocol = (*Bridge)(nil)
var _ netsim.Node = (*Bridge)(nil)
