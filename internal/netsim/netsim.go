// Package netsim models the physical network of the demo: nodes (bridges
// and hosts) joined by full-duplex Ethernet links with finite bit rate,
// propagation delay and bounded output queues, plus link failure injection
// and frame taps for tracing.
//
// It is the repository's substitute for the paper's NetFPGA testbed (see
// DESIGN.md): serialization delay uses the exact Ethernet wire overhead
// (preamble, FCS, inter-frame gap) so a 1 Gb/s simulated link paces frames
// like the hardware MACs, and the flooded-copy races that ARP-Path depends
// on are decided by arrival times computed from these models.
package netsim

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/layers"
	"repro/internal/sim"
)

// Node is anything that terminates links: a bridge or a host. All methods
// are invoked from the simulation goroutine.
type Node interface {
	// Name returns the node's unique display name.
	Name() string
	// AttachPort is called once per port when the node is cabled.
	AttachPort(p *Port)
	// HandleFrame delivers a received frame. The frame is borrowed: it
	// is valid only until the method returns. Forwarding it onward with
	// Port.SendFrame during the call is safe; keeping it longer requires
	// an explicit Retain (and a matching Release). See Frame.
	HandleFrame(p *Port, f *Frame)
	// PortStatusChanged reports link up/down transitions on p.
	PortStatusChanged(p *Port, up bool)
}

// LinkConfig describes one link's physical properties. Both directions
// share the configuration.
type LinkConfig struct {
	// Rate is the line rate in bits per second.
	Rate int64
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// Queue is the per-direction output queue capacity in bytes. Frames
	// that would overflow it are tail-dropped.
	Queue int
}

// DefaultLinkConfig matches the demo hardware: 1 Gb/s, a short wire, and a
// NetFPGA-sized output queue.
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{Rate: 1_000_000_000, Delay: 5 * time.Microsecond, Queue: 128 << 10}
}

// WithDelay returns a copy of c with the propagation delay replaced.
func (c LinkConfig) WithDelay(d time.Duration) LinkConfig {
	c.Delay = d
	return c
}

// TapKind classifies tap events.
type TapKind uint8

// Tap event kinds.
const (
	// TapSend fires when a frame is accepted into a link's output queue.
	TapSend TapKind = iota
	// TapDeliver fires when a frame reaches the far port's node.
	TapDeliver
	// TapDropQueue fires when a frame is tail-dropped at a full queue.
	TapDropQueue
	// TapDropDown fires when a frame is discarded because the link is (or
	// went) down.
	TapDropDown
	// TapDropLoss fires when a frame is discarded by a configured
	// unidirectional loss rate (a degraded cable, Link.SetLoss).
	TapDropLoss
)

// String names the kind.
func (k TapKind) String() string {
	switch k {
	case TapSend:
		return "send"
	case TapDeliver:
		return "deliver"
	case TapDropQueue:
		return "drop-queue"
	case TapDropDown:
		return "drop-down"
	case TapDropLoss:
		return "drop-loss"
	default:
		return "tap(?)"
	}
}

// TapEvent is a single observation of a frame at a link.
type TapEvent struct {
	At   time.Duration
	Kind TapKind
	From *Port
	To   *Port
	// Frame aliases the pooled frame buffer: read it during the tap
	// call only, do not mutate, and copy if the bytes must outlive it.
	Frame []byte
	// FrameID is the pooled frame's origination identity (Frame.ID):
	// stable across every hop and flood egress of one originated frame,
	// which is what lets a tap correlate events into per-frame hop traces.
	// Zero on origination-side drops that happen before a pooled frame
	// exists (a down link or full queue rejecting Port.Send).
	FrameID uint64
}

// TapFunc observes frames network-wide.
type TapFunc func(TapEvent)

// Network owns the simulation engine(s), the nodes and the links.
//
// A network starts single-engine. Partition splits it into shards — one
// engine each, run in turn on the calling goroutine — synchronized by a
// conservative lookahead coordinator (DESIGN.md §8). Engine remains the
// control engine: driver code (experiments, fault schedules) keeps
// scheduling on it, and in a sharded run those root events execute at
// barriers with every shard paused and lined up on the same virtual instant.
type Network struct {
	Engine *sim.Engine

	seed   int64
	nodes  []Node
	byNam  map[string]Node
	nports map[Node]int
	links  []*Link
	taps   []TapFunc
	procs  map[string]*sim.Proc
	slab   []sim.Proc // the current chunk node identities are carved from
	owners uint64     // scheduling-identity allocator; id 0 is the root driver
	live   int64      // this network's frames not yet finally released

	co *coordinator // non-nil once Partition sharded the fabric
}

// NewNetwork creates an empty network with a deterministic engine.
func NewNetwork(seed int64) *Network {
	return &Network{
		Engine: sim.New(seed),
		seed:   seed,
		byNam:  make(map[string]Node),
		nports: make(map[Node]int),
		procs:  make(map[string]*sim.Proc),
	}
}

// Seed returns the seed the network was created with.
func (n *Network) Seed() int64 { return n.seed }

// AddNode registers a node and mints its scheduling identity. Connect
// registers implicitly; explicit registration is only needed for nodes
// created before any cabling.
func (n *Network) AddNode(node Node) {
	if _, dup := n.byNam[node.Name()]; dup {
		panic(fmt.Sprintf("netsim: duplicate node name %q", node.Name()))
	}
	n.byNam[node.Name()] = node
	n.nodes = append(n.nodes, node)
	n.owners++
	if len(n.slab) == cap(n.slab) {
		n.slab = make([]sim.Proc, 0, procChunk)
	}
	n.slab = n.slab[:len(n.slab)+1]
	p := &n.slab[len(n.slab)-1]
	p.Init(n.Engine, n.owners)
	n.procs[node.Name()] = p
}

// procChunk is how many node identities share one allocation.
const procChunk = 64

// Proc returns the scheduling identity of the named node: the handle its
// code must use for every timer and event it creates, so the event order
// stays independent of how the fabric is sharded. It panics for unknown
// names (identities are minted at registration).
func (n *Network) Proc(name string) *sim.Proc {
	p, ok := n.procs[name]
	if !ok {
		panic(fmt.Sprintf("netsim: no scheduling identity for node %q", name))
	}
	return p
}

// NewFrame copies b into a pooled frame counted against this network's
// live-frame balance (see LiveFrames).
func (n *Network) NewFrame(b []byte) *Frame { return newFrame(b, &n.live) }

// LiveFrames returns the number of this network's pooled frames currently
// referenced anywhere. Unlike the package-level LiveFrames it is immune to
// other simulations running concurrently in the same process.
func (n *Network) LiveFrames() int64 { return n.live }

// Nodes returns the registered nodes in registration order.
func (n *Network) Nodes() []Node { return n.nodes }

// NodeByName looks a node up, returning nil if absent.
func (n *Network) NodeByName(name string) Node { return n.byNam[name] }

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return n.links }

// Tap registers fn to observe every frame event in the network.
func (n *Network) Tap(fn TapFunc) { n.taps = append(n.taps, fn) }

// tracing reports whether any tap is installed. The frame hot path guards
// every emit call behind it so an untapped run never pays for assembling
// the TapEvent (the dominant configuration for benchmarks: the check is
// one load+branch per frame event instead of a struct fill).
func (n *Network) tracing() bool { return len(n.taps) > 0 }

// emit reports a tap event observed while engine e was executing. During
// a lookahead window the event is buffered per shard (bytes copied into a
// per-shard arena, stamped with the executing event's ordering key) and
// delivered later by the coordinator's deterministic merge. Everywhere
// else — unsharded runs, barrier events, driver code between runs — it is
// delivered inline: those contexts are single-threaded with every earlier
// window tap already flushed, so inline program order is exactly the order
// the unsharded run would have emitted.
func (n *Network) emit(e *sim.Engine, ev TapEvent) {
	if len(n.taps) == 0 {
		return
	}
	if n.co != nil && n.co.inWindow {
		n.co.buffer(e, ev)
		return
	}
	for _, t := range n.taps {
		t(ev)
	}
}

// Connect cables nodes a and b with a new full-duplex link, assigning each
// side the node's next free port index. Nodes are registered on first use.
func (n *Network) Connect(a, b Node, cfg LinkConfig) *Link {
	if cfg.Rate <= 0 {
		panic("netsim: link rate must be positive")
	}
	if cfg.Queue <= 0 {
		panic("netsim: link queue must be positive")
	}
	if cfg.Delay < 0 {
		panic("netsim: negative propagation delay")
	}
	for _, node := range []Node{a, b} {
		if _, ok := n.byNam[node.Name()]; !ok {
			n.AddNode(node)
		}
	}
	l := &Link{net: n, cfg: cfg, up: true}
	for side, node := range [2]Node{a, b} {
		// b's index is read after a's increment, so self-loops get
		// distinct indices.
		p := &l.ports[side]
		*p = Port{link: l, node: node, side: side, index: n.nports[node]}
		n.nports[node]++
		p.str = node.Name() + "[" + strconv.Itoa(p.index) + "]"
		p.nameHash = fnvString(p.str)
		// Each direction transmits under its own identity: flight events
		// are keyed by (link direction, per-direction sequence), both
		// functions of the sending side's deterministic history alone, so
		// delivery order is the same whether the link is intra-shard or a
		// shard boundary.
		n.owners++
		l.proc[side].Init(n.Engine, n.owners)
		l.first[side] = flight{link: l, from: p}
		l.dir[side].free = &l.first[side]
		// A direction draws losses from its own stream, keyed by the
		// link's creation order and the sending side: the k-th admitted
		// frame sees the same draw however the fabric is sharded, which a
		// shared engine RNG consumed in execution order would not survive.
		l.loss[side] = sim.LinkDirs.Stream(n.seed, len(n.links)*2+side)
	}
	n.links = append(n.links, l)
	a.AttachPort(&l.ports[0])
	b.AttachPort(&l.ports[1])
	return l
}

// Run drains the event queue(s) to full quiescence.
func (n *Network) Run() {
	if n.co != nil {
		n.co.run(0, false)
		return
	}
	n.Engine.Run()
}

// RunFor advances virtual time by d.
func (n *Network) RunFor(d time.Duration) { n.RunUntil(n.Now() + d) }

// RunUntil advances virtual time to t.
func (n *Network) RunUntil(t time.Duration) {
	if n.co != nil {
		n.co.run(t, true)
		return
	}
	n.Engine.RunUntil(t)
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.Engine.Now() }

// Quiescent reports whether nothing is scheduled anywhere: no control
// engine events, and in a sharded fabric no shard events either (a
// cross-shard arrival is a shard event from the moment it is sent). Call
// from driver context only — between runs or inside a barrier event. A
// long-running driver uses this to park instead of spinning bounded runs
// against an idle fabric: once quiescent, virtual time only moves again
// when the driver schedules new work.
func (n *Network) Quiescent() bool {
	if n.Engine.Pending() > 0 {
		return false
	}
	if n.co != nil {
		for _, e := range n.co.shards {
			if e.Pending() > 0 {
				return false
			}
		}
	}
	return true
}

// ScheduleScoped schedules fn at absolute virtual time t under owner's
// scheduling identity, for an action that touches only the state of the
// nodes in touch (owner included). The event's ordering key is a function
// of owner's own history — partition-independent, like every other key —
// but its venue is chosen by the partition: when every touched node lives
// in owner's shard the event executes inside that shard's lookahead
// windows; when the action spans shards it executes on the control engine
// as a coordinator barrier, with every shard paused and clocks aligned.
// Fault injection uses this to keep intra-shard faults off the barrier
// path: the trace is byte-identical either way, only the synchronization
// cost differs. Call from driver code only (between runs or inside a
// barrier event): the cross-shard branch schedules on the control
// engine, which shard windows must never touch.
func (n *Network) ScheduleScoped(t time.Duration, owner Node, touch []Node, fn func()) {
	p := n.Proc(owner.Name())
	k := sim.Key{At: t, Owner: p.ID(), Seq: p.NextSeq()}
	if n.co == nil {
		n.Engine.ScheduleKeyedFunc(k, fn)
		return
	}
	home := n.co.shardOf[owner]
	for _, nd := range touch {
		if n.co.shardOf[nd] != home {
			// Spans shards: a barrier, but keyed exactly like the
			// shard-local venue would have keyed it.
			n.Engine.ScheduleKeyedFunc(k, fn)
			return
		}
	}
	n.co.shards[home].ScheduleKeyedFunc(k, fn)
}

// Barriers returns how many control-engine events have executed as
// coordinator barriers (all shards paused) since the fabric was
// partitioned; 0 on an unsharded network. Barriers are the serial section
// of a sharded run, so the scenario engine's shard-local fault routing is
// pinned by this counter going down.
func (n *Network) Barriers() uint64 {
	if n.co == nil {
		return 0
	}
	return n.co.barriers
}

// CoordStats returns the coordinator's cumulative overhead counters:
// windows run, barriers, cross-shard arrivals exchanged and shard windows
// run. Zero-valued on an unsharded network. Call it between runs only.
func (n *Network) CoordStats() CoordStats {
	co := n.co
	if co == nil {
		return CoordStats{}
	}
	return CoordStats{
		Windows: co.windows, Barriers: co.barriers, Exchanged: co.exchanged,
		Wakes: co.windows * uint64(len(co.shards)),
	}
}

// PortStats counts traffic through one port.
type PortStats struct {
	TxFrames, TxBytes uint64
	RxFrames, RxBytes uint64
	DropsQueue        uint64 // frames tail-dropped on egress
	DropsDown         uint64 // frames lost to a down link
	DropsLoss         uint64 // frames lost to unidirectional degradation
}

// Port is one end of a link, owned by a node and stored inside its Link.
// The fields every frame reads come first; the tracing-only ones last.
type Port struct {
	link  *Link
	node  Node
	side  int
	index int
	stats PortStats
	str   string // cached String(): node name and index are fixed at cabling
	// nameHash is FNV-1a(str), what TapFingerprint folds for this port.
	nameHash uint64
}

// Node returns the owning node.
func (p *Port) Node() Node { return p.node }

// Index returns the port's index within its node (0-based, cabling order).
func (p *Port) Index() int { return p.index }

// Link returns the attached link.
func (p *Port) Link() *Link { return p.link }

// Peer returns the port at the other end of the link.
func (p *Port) Peer() *Port { return &p.link.ports[1-p.side] }

// Up reports whether the attached link is up.
func (p *Port) Up() bool { return p.link.up }

// Stats returns a snapshot of the port's counters. Call it while the
// simulation is paused.
func (p *Port) Stats() PortStats { return p.stats }

// String renders "node[index]".
func (p *Port) String() string {
	if p.str != "" {
		return p.str
	}
	return fmt.Sprintf("%s[%d]", p.node.Name(), p.index)
}

// Send copies frame into a pooled buffer and transmits it out this port;
// the caller may reuse its slice. This is the origination path (hosts,
// control-frame serializers) and costs the frame's one and only copy.
// Bridges forwarding a received *Frame use SendFrame, which is zero-copy.
// Down links and full queues drop (with taps fired and counters bumped)
// exactly like a real egress MAC — and before the copy, so dropped
// originations stay as cheap as they were pre-pooling.
func (p *Port) Send(frame []byte) {
	if !p.link.admit(p, frame, 0) {
		return
	}
	f := p.link.net.NewFrame(frame)
	p.link.transmit(p, f)
	f.Release()
}

// SendFrame transmits f out this port without copying. The link takes its
// own reference for the flight; the caller's reference is untouched, so
// forwarding a borrowed frame from inside HandleFrame needs no Retain.
//
//fabric:hotpath
func (p *Port) SendFrame(f *Frame) {
	if !p.link.admit(p, f.Bytes(), f.id) {
		return
	}
	p.link.transmit(p, f)
}

// linkDir is the per-direction transmission state of a link. It is owned
// by the shard of the transmitting node: only sender-side events touch it.
type linkDir struct {
	busyUntil   time.Duration // when the serializer frees up
	queuedBytes int           // wire bytes accepted but not yet serialized
	busyTotal   time.Duration // cumulative serialization time (utilization)
	lossRate    float64       // probability a frame this direction is lost
	free        *flight       // recycled flights of this direction, threaded through next
}

// Link is a full-duplex point-to-point Ethernet link: one allocation
// holding both ports, both direction identities and each direction's
// first flight, with the fields every frame reads first (DESIGN.md §5,
// "What one hop touches"). Connect builds it in place; it is never copied.
type Link struct {
	net   *Network
	proc  [2]sim.Proc // per-direction transmit identity (side = sender)
	dir   [2]linkDir
	cfg   LinkConfig
	up    bool
	epoch uint64 // bumped on every up/down transition; kills in-flight frames
	shard [2]int // shard of each side's node (set by Partition)
	ports [2]Port
	first [2]flight     // each direction's first flight, on its free list from cabling
	loss  [2]sim.Stream // per-direction loss draws; only a lossy direction seeds its stream
}

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }

// Up reports whether the link is up.
func (l *Link) Up() bool { return l.up }

// A returns the first-cabled port, B the second.
func (l *Link) A() *Port { return &l.ports[0] }

// B returns the second-cabled port.
func (l *Link) B() *Port { return &l.ports[1] }

// Ports returns both ends, A first.
func (l *Link) Ports() [2]*Port { return [2]*Port{&l.ports[0], &l.ports[1]} }

// String renders "a[i]<->b[j]".
func (l *Link) String() string {
	return fmt.Sprintf("%s<->%s", &l.ports[0], &l.ports[1])
}

// BusyTime returns the cumulative serialization time in the direction away
// from p, the basis of the load-distribution experiment's utilization.
func (l *Link) BusyTime(p *Port) time.Duration {
	return l.dir[p.side].busyTotal
}

// SetLoss degrades the direction transmitting away from port from: each
// admitted frame is independently lost with probability rate (drawn from
// the direction's own stream, LossStream, so a seed fully determines which
// frames die). rate 0 restores the direction; the opposite direction is
// untouched, which is what models a unidirectionally failing cable — the
// wARP-Path-style impairment a clean up/down flap cannot express. Must be
// called from the simulation goroutine, like SetUp.
func (l *Link) SetLoss(from *Port, rate float64) {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("netsim: loss rate %v out of [0,1]", rate))
	}
	l.dir[from.side].lossRate = rate
}

// Loss returns the loss rate in the direction transmitting away from from.
func (l *Link) Loss(from *Port) float64 { return l.dir[from.side].lossRate }

// LossStream returns the random stream of the direction transmitting away
// from from.
func (l *Link) LossStream(from *Port) *sim.Stream { return &l.loss[from.side] }

// SetUp changes the link state, purging queued traffic on a down
// transition and notifying both nodes. Must be called from the simulation
// goroutine (inside an event, or via Network.ScheduleLink{Down,Up}). In a
// sharded run the link's state is read by both sides' shards, so SetUp is
// legal from root/driver context (a fault op or phase boundary executing
// as a coordinator barrier with every shard paused) — or, when both ends
// live in one shard, from an event of that shard (ScheduleScoped's
// shard-local fault venue).
func (l *Link) SetUp(up bool) {
	if l.up == up {
		return
	}
	l.up = up
	l.epoch++
	// The transmitting sides' clock: equals the control clock at barriers
	// and in driver code, and the owning shard's clock for a shard-local
	// intra-shard fault (where the control clock is parked at the last
	// barrier).
	now := l.proc[0].Engine().Now()
	for i := range l.dir {
		l.dir[i].busyUntil = now
		l.dir[i].queuedBytes = 0
	}
	for i := range l.ports {
		p := &l.ports[i]
		p.node.PortStatusChanged(p, up)
	}
}

// flight is one frame in transit over a link: the pooled state behind the
// two events every transmission schedules (serializer-free at txDone,
// delivery at arrival). Flights implement sim.Runner so scheduling them
// allocates nothing, which together with the pooled Frame makes the
// steady-state forwarding path allocation-free.
//
// A flight belongs to the link direction that sent it for life: it is
// taken from and returned to that direction's free list, both on the
// sending side's shard (the txDone and local-arrival events run under the
// direction's own Proc), so recycling needs no synchronization and no
// sync.Pool pin per frame. A direction holds as many flights as it ever
// had in transit at once; the first of them is stored in the link itself.
type flight struct {
	eng   *sim.Engine // the shard engine executing this flight's events
	link  *Link
	from  *Port
	frame *Frame // nil when the arrival was shipped to another shard
	epoch uint64
	wire  int
	next  *flight // free-list link while recycled
}

// flight RunEvent stages.
const (
	flightTxDone  = 0 // serializer freed: drain the queue accounting
	flightArrival = 1 // frame reached the far port: deliver and clean up
)

// takeFlight returns a flight for one transmission away from from: the
// direction's most recently recycled one, or a new one.
//
//fabric:hotpath
func (l *Link) takeFlight(from *Port, e *sim.Engine, f *Frame, wire int) *flight {
	d := &l.dir[from.side]
	fl := d.free
	if fl == nil {
		fl = &flight{link: l, from: from}
	} else {
		d.free = fl.next
	}
	fl.eng, fl.frame, fl.epoch, fl.wire = e, f, l.epoch, wire
	return fl
}

// recycle returns a finished flight to its direction's free list.
//
//fabric:hotpath
func (fl *flight) recycle() {
	d := &fl.link.dir[fl.from.side]
	fl.frame = nil
	fl.next = d.free
	d.free = fl
}

// RunEvent implements sim.Runner. The txDone event always fires before
// the arrival event (it is scheduled first at an earlier-or-equal time),
// so the flight can be recycled once arrival runs — or at txDone when the
// arrival was shipped across a shard boundary and no local arrival exists.
//
//fabric:hotpath
func (fl *flight) RunEvent(arg int32) {
	l := fl.link
	if arg == flightTxDone {
		if l.epoch == fl.epoch {
			l.dir[fl.from.side].queuedBytes -= fl.wire
		}
		if fl.frame == nil {
			fl.recycle()
		}
		return
	}
	e := fl.eng
	from, f, epoch := fl.from, fl.frame, fl.epoch
	to := from.Peer()
	// Everything delivery needs is copied out, so the flight is free
	// before the node runs (and possibly transmits) inside deliver.
	fl.recycle()
	deliver(e, l, from, to, f, epoch)
}

// deliver is the shared arrival tail of local flights and cross-shard
// remote flights: epoch check, stats, tap, handoff to the node.
//
//fabric:hotpath
func deliver(e *sim.Engine, l *Link, from, to *Port, f *Frame, epoch uint64) {
	if l.epoch != epoch || !l.up {
		// The frame was in flight when the link flapped.
		from.stats.DropsDown++
		if l.net.tracing() {
			l.net.emit(e, TapEvent{At: e.Now(), Kind: TapDropDown, From: from, To: to, Frame: f.Bytes(), FrameID: f.id})
		}
		f.Release()
		return
	}
	to.stats.RxFrames++
	to.stats.RxBytes += uint64(f.Len())
	if l.net.tracing() {
		l.net.emit(e, TapEvent{At: e.Now(), Kind: TapDeliver, From: from, To: to, Frame: f.Bytes(), FrameID: f.id})
	}
	to.node.HandleFrame(to, f)
	f.Release()
}

// remoteFlight is a cross-shard arrival: injected by the coordinator's
// ship into the destination shard, carrying that shard's own clone of
// the frame. Its ordering key was stamped by the sending link direction,
// so it sorts exactly where the local arrival would have.
type remoteFlight struct {
	eng   *sim.Engine
	link  *Link
	from  *Port
	frame *Frame
	epoch uint64
}

var remoteFlightPool = sync.Pool{New: func() any { return new(remoteFlight) }}

// RunEvent implements sim.Runner.
//
//fabric:hotpath
func (rf *remoteFlight) RunEvent(int32) {
	e, l, from, f, epoch := rf.eng, rf.link, rf.from, rf.frame, rf.epoch
	*rf = remoteFlight{}
	remoteFlightPool.Put(rf)
	deliver(e, l, from, from.Peer(), f, epoch)
}

// admit runs the egress drop checks (link down, queue overflow, lossy
// direction) on the raw bytes, emitting drop taps and bumping counters.
// Running before any frame is materialized keeps the drop path copy- and
// allocation-free. id is the pooled frame's identity when one exists
// (SendFrame), zero on the origination path (Send) where the frame has
// not been materialized yet.
//
//fabric:hotpath
func (l *Link) admit(from *Port, frame []byte, id uint64) bool {
	e := l.proc[from.side].Engine()
	now := e.Now()
	if !l.up {
		from.stats.DropsDown++
		if l.net.tracing() {
			l.net.emit(e, TapEvent{At: now, Kind: TapDropDown, From: from, To: from.Peer(), Frame: frame, FrameID: id})
		}
		return false
	}
	d := &l.dir[from.side]
	if d.lossRate > 0 && l.loss[from.side].Rand().Float64() < d.lossRate {
		from.stats.DropsLoss++
		if l.net.tracing() {
			l.net.emit(e, TapEvent{At: now, Kind: TapDropLoss, From: from, To: from.Peer(), Frame: frame, FrameID: id})
		}
		return false
	}
	if d.queuedBytes+layers.WireBytes(len(frame)) > l.cfg.Queue {
		from.stats.DropsQueue++
		if l.net.tracing() {
			l.net.emit(e, TapEvent{At: now, Kind: TapDropQueue, From: from, To: from.Peer(), Frame: frame, FrameID: id})
		}
		return false
	}
	return true
}

// serTime is the serialization delay of wire bytes at rate bits/s.
func serTime(rate int64, wire int) time.Duration {
	return time.Duration(wire) * 8 * time.Duration(time.Second) / time.Duration(rate)
}

// transmit queues an admitted frame for serialization and delivery.
//
//fabric:hotpath
func (l *Link) transmit(from *Port, f *Frame) {
	p := &l.proc[from.side]
	e := p.Engine()
	now := e.Now()
	wire := layers.WireBytes(f.Len())
	d := &l.dir[from.side]

	start := d.busyUntil
	if start < now {
		start = now
	}
	serialization := serTime(l.cfg.Rate, wire)
	txDone := start + serialization
	arrival := txDone + l.cfg.Delay

	d.queuedBytes += wire
	d.busyUntil = txDone
	d.busyTotal += serialization

	from.stats.TxFrames++
	from.stats.TxBytes += uint64(f.Len())
	to := from.Peer()
	if l.net.tracing() {
		l.net.emit(e, TapEvent{At: now, Kind: TapSend, From: from, To: to, Frame: f.Bytes(), FrameID: f.id})
	}

	// Both events are keyed now (not at txDone) by this direction's
	// identity, so the (time, owner, seq) order of deliveries — and every
	// ARP race outcome — is a function of the senders' histories alone.
	if co := l.net.co; co != nil && l.shard[from.side] != l.shard[to.side] {
		// Boundary link: serializer bookkeeping stays home; the arrival is
		// shipped into the destination shard's engine with a sender-stamped
		// key and its own clone of the frame. The key consumes this
		// direction's sequence numbers in the same order as the local path
		// below, so the destination's event order is identical at any
		// shard count.
		p.ScheduleRunner(txDone, l.takeFlight(from, e, nil, wire), flightTxDone)
		co.ship(l.shard[to.side], sim.Key{At: arrival, Owner: p.ID(), Seq: p.NextSeq()}, l, from, f.clone())
		return
	}
	// The flight holds its own reference, released on delivery/drop.
	fl := l.takeFlight(from, e, f.Retain(), wire)
	p.ScheduleRunner(txDone, fl, flightTxDone)
	p.ScheduleRunner(arrival, fl, flightArrival)
}
