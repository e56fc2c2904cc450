package scenario

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/host/app"
	"repro/internal/netsim"
)

// FaultFamily names a class of seeded fault schedules.
type FaultFamily string

// Fault schedule families.
const (
	// FaultsLinkFlaps cuts trunk links and restores them after a pause —
	// the paper's §3.2 path-repair stimulus, randomized.
	FaultsLinkFlaps FaultFamily = "link-flaps"
	// FaultsBridgeRestarts power-cycles bridges with total table loss.
	FaultsBridgeRestarts FaultFamily = "bridge-restarts"
	// FaultsUnidirLoss degrades single link directions with random frame
	// loss (the wARP-Path lossy-link regime).
	FaultsUnidirLoss FaultFamily = "unidir-loss"
	// FaultsQueuePressure fires line-rate UDP bursts that overflow output
	// queues, so discovery races and repairs run under congestion drop.
	FaultsQueuePressure FaultFamily = "queue-pressure"
	// FaultsPartition splits the fabric in two along a seeded cut of the
	// bridge graph (every crossing trunk goes down at once), runs traffic
	// against the halves, then heals the cut — the harshest repair
	// stimulus: both sides keep stale state about the other for the whole
	// partition, and reconciliation must not loop or blackhole.
	FaultsPartition FaultFamily = "partition-heal"
	// FaultsMixed combines one of each of the single-fault families.
	FaultsMixed FaultFamily = "mixed"
	// FaultsHostMobility re-homes stations to a pre-cabled spare wall
	// jack on another edge bridge and back, announcing each move with a
	// gratuitous ARP (host.AnnounceLocation) the way a real OS does on
	// link-up. The fabric must re-lock the station's position from the
	// announcement flood alone — no bridge configuration, no
	// reconvergence (§2.1.1's first-port rule under churn). Topology
	// families without spare jacks (grid, fattree) yield empty
	// schedules: the instance still runs and must still verify.
	FaultsHostMobility FaultFamily = "host-mobility"
)

// faultFamily is one row of the family table: a schedule family and the
// fault steps one schedule of it draws. spares builds its fabrics with
// spare jacks (topo.Options.SpareJacks).
type faultFamily struct {
	name   FaultFamily
	draw   func(s *schedule)
	spares bool
}

// faultFamilies is the family table, in sweep order.
var faultFamilies = []faultFamily{
	{name: FaultsLinkFlaps, draw: func(s *schedule) { s.repeat(2, 3, s.flap) }},
	{name: FaultsBridgeRestarts, draw: func(s *schedule) { s.repeat(1, 2, s.restart) }},
	{name: FaultsUnidirLoss, draw: func(s *schedule) { s.repeat(1, 2, s.loss) }},
	{name: FaultsQueuePressure, draw: func(s *schedule) { s.repeat(2, 2, s.burst) }},
	{name: FaultsPartition, draw: func(s *schedule) { s.partition() }},
	{name: FaultsMixed, draw: func(s *schedule) { s.flap(); s.restart(); s.loss(); s.burst() }},
	{name: FaultsHostMobility, draw: func(s *schedule) { s.repeat(1, 2, s.move) }, spares: true},
}

// FaultFamilies lists every schedule family, sweep order.
func FaultFamilies() []FaultFamily {
	names := make([]FaultFamily, len(faultFamilies))
	for i, f := range faultFamilies {
		names[i] = f.name
	}
	return names
}

// family is the family table's row for name. An unknown name panics: the
// Spec path refuses it before a scenario runs.
func family(name FaultFamily) *faultFamily {
	for i := range faultFamilies {
		if faultFamilies[i].name == name {
			return &faultFamilies[i]
		}
	}
	panic(fmt.Sprintf("scenario: unknown fault family %q", name))
}

// schedule draws one fault schedule: all randomness comes from plan, and
// times land inside [0, phase) with repairs-in-flight room at the end left
// to the quiescence period.
type schedule struct {
	plan  *rand.Rand
	ix    *Index
	phase time.Duration
	port  *uint16 // the last burst port handed out
	ops   []FaultOp
}

// generateOps draws one schedule of the given family.
func generateOps(name FaultFamily, plan *rand.Rand, ix *Index, phase time.Duration, burstPort *uint16) []FaultOp {
	s := &schedule{plan: plan, ix: ix, phase: phase, port: burstPort}
	family(name).draw(s)
	sort.SliceStable(s.ops, func(i, j int) bool { return s.ops[i].At < s.ops[j].At })
	return s.ops
}

// repeat takes step least+plan.Intn(spread) times.
func (s *schedule) repeat(least, spread int, step func()) {
	for i, n := 0, least+s.plan.Intn(spread); i < n; i++ {
		step()
	}
}

// at draws a time inside the first frac of the phase.
func (s *schedule) at(frac float64) time.Duration {
	return time.Duration(s.plan.Float64() * frac * float64(s.phase))
}

// upTo draws a span in [0, d).
func (s *schedule) upTo(d time.Duration) time.Duration { return time.Duration(s.plan.Intn(int(d))) }

// pair appends a fault at start and its repair dur later.
func (s *schedule) pair(start, dur time.Duration, fault, repair FaultOp) {
	fault.At, repair.At = start, start+dur
	s.ops = append(s.ops, fault, repair)
}

// flap cuts a trunk and restores it after a pause.
func (s *schedule) flap() {
	if len(s.ix.Trunks) > 0 {
		link := s.ix.Trunks[s.plan.Intn(len(s.ix.Trunks))]
		s.pair(s.at(0.6), 20*time.Millisecond+s.upTo(100*time.Millisecond),
			FaultOp{Kind: OpLinkDown, Link: link}, FaultOp{Kind: OpLinkUp, Link: link})
	}
}

// restart power-cycles a bridge.
func (s *schedule) restart() {
	s.ops = append(s.ops, FaultOp{At: s.at(0.8), Kind: OpBridgeRestart, Bridge: s.plan.Intn(len(s.ix.Bridges))})
}

// loss degrades one direction of a trunk for a while.
func (s *schedule) loss() {
	if len(s.ix.Trunks) > 0 {
		link := s.ix.Trunks[s.plan.Intn(len(s.ix.Trunks))]
		side := s.plan.Intn(2)
		s.pair(s.at(0.5), 50*time.Millisecond+s.upTo(150*time.Millisecond),
			FaultOp{Kind: OpSetLoss, Link: link, Side: side, Rate: 0.2 + 0.5*s.plan.Float64()},
			FaultOp{Kind: OpClearLoss, Link: link, Side: side})
	}
}

// burst fires a line-rate UDP burst on a port of its own.
func (s *schedule) burst() {
	hosts := len(s.ix.Hosts)
	src, dst := s.plan.Intn(hosts), s.plan.Intn(hosts)
	if dst == src {
		dst = (dst + 1) % hosts
	}
	*s.port++
	s.ops = append(s.ops, FaultOp{
		At: s.at(0.5), Kind: OpBurst, Src: src, Dst: dst, Port: *s.port,
		Count:    1000 + s.plan.Intn(1500),
		Interval: time.Duration(6+s.plan.Intn(8)) * time.Microsecond,
		Payload:  1000 + s.plan.Intn(400),
	})
}

// partition takes down a seeded bisection's crossing trunks together and
// heals them together.
func (s *schedule) partition() {
	if cut := s.ix.PartitionCut(s.plan); len(cut) > 0 {
		start, dur := s.at(0.3), 80*time.Millisecond+s.upTo(120*time.Millisecond)
		for _, li := range cut {
			s.pair(start, dur, FaultOp{Kind: OpLinkDown, Link: li}, FaultOp{Kind: OpLinkUp, Link: li})
		}
	}
}

// move re-homes a mobile station to its spare jack and back. Move and
// return (plus the 5 ms link-up announcement) stay inside the fault
// phase, so generated schedules always restore cabling before heal.
func (s *schedule) move() {
	if len(s.ix.Mobile) > 0 {
		h := s.ix.Mobile[s.plan.Intn(len(s.ix.Mobile))]
		s.pair(s.at(0.4), 60*time.Millisecond+s.upTo(120*time.Millisecond),
			FaultOp{Kind: OpHostMove, Host: h}, FaultOp{Kind: OpHostReturn, Host: h})
	}
}

// Describe renders an op against the concrete instance (names, not
// indices).
func (ix *Index) Describe(op FaultOp) string {
	s := op.String()
	if k := op.Kind.row(); k != nil {
		if names := k.names(ix, op); names != "" {
			s += " (" + names + ")"
		}
	}
	return s
}

// Validate bounds-checks an op against the instance without applying it:
// indices must name real entities, loss sides/rates and burst parameters
// must be well-formed, and moves must target mobile hosts. Apply assumes
// validated ops; a daemon validates at the trust boundary instead of
// panicking mid-simulation.
func (ix *Index) Validate(op FaultOp) error {
	if op.At < 0 {
		return fmt.Errorf("op time %v is negative", op.At)
	}
	k := op.Kind.row()
	if k == nil {
		return fmt.Errorf("unknown fault kind %d", op.Kind)
	}
	return k.check(ix, op)
}

// Apply schedules every op at base+op.At, keyed by the entity it acts on:
// an op whose touched nodes share a shard runs inside that shard's
// lookahead windows, and only one that spans shards pauses the fabric as
// a coordinator barrier. It returns the burst datagrams offered and the
// burst sinks this call bound. Apply is legal from driver context only —
// between runs, exactly like the batch engine's fault phase.
func (ix *Index) Apply(ops []FaultOp, base time.Duration) (offered int, sinks []*app.Sink) {
	var res applied
	for _, op := range ops {
		op.Kind.row().apply(ix, op, base+op.At, &res)
	}
	return res.offered, res.sinks
}

// forceBarrierOps is a test knob: when set, every fault op schedules on
// the control engine the pre-classification way (a coordinator barrier in
// sharded runs, whatever it touches). The barrier-reduction regression
// compares a run against this mode to pin that intra-shard ops really
// left the barrier path.
var forceBarrierOps bool

// scheduleOp routes one fault action: keyed by owner's identity, executed
// shard-locally when everything it touches lives in owner's shard, as a
// coordinator barrier otherwise (netsim.ScheduleScoped).
func (ix *Index) scheduleOp(at time.Duration, owner netsim.Node, touch []netsim.Node, fn func()) {
	if forceBarrierOps {
		ix.built.Engine.At(at, fn)
		return
	}
	ix.built.Network.ScheduleScoped(at, owner, touch, fn)
}

// linkEnds returns a link's two end nodes.
func linkEnds(l *netsim.Link) (netsim.Node, netsim.Node) {
	return l.A().Node(), l.B().Node()
}

// rehomeTouch is the node set a host move touches: the station plus the
// edge bridges at both wall jacks (both links flip state).
func (ix *Index) rehomeTouch(host int) []netsim.Node {
	h := ix.host(host)
	touch := []netsim.Node{h}
	for _, li := range []int{ix.homeJack[host], ix.spareJack[host]} {
		a, b := linkEnds(ix.link(li))
		touch = append(touch, a, b)
	}
	return touch
}

// rehome swaps a station between its home and spare jacks and schedules
// the gratuitous ARP a real OS sends shortly after link-up. Without that
// announcement the fabric would keep the old position and (correctly,
// §2.1.1) discard the station's frames — see core's mobility tests.
func (ix *Index) rehome(host int, toSpare bool) {
	home, spare := ix.link(ix.homeJack[host]), ix.link(ix.spareJack[host])
	from, to := home, spare
	if !toSpare {
		from, to = spare, home
	}
	from.SetUp(false)
	to.SetUp(true)
	h := ix.host(host)
	// Under the host's identity (not the control engine's): the
	// announcement must fire whether the move ran as a barrier, as a
	// shard-local event, or from heal's driver context — and carry the
	// same partition-independent key in all three.
	h.After(5*time.Millisecond, func() {
		// The link may have flapped again (replayed/shrunk schedules);
		// announce only while the new jack is still the live one.
		if to.Up() {
			h.AnnounceLocation()
		}
	})
}

// restartable is the fault injector's view of a bridge that can lose all
// state (core.Bridge implements it).
type restartable interface{ Restart() }

// Heal returns every link to service: all links up, all loss cleared —
// except spare jacks, whose healthy state is down (a station's home jack
// is the live one). A station stranded on its spare by a shrunk or
// replayed schedule is re-homed and re-announced, exactly what replugging
// the original cable does.
func (ix *Index) Heal() {
	for i, name := range ix.Links {
		l := ix.built.Links[name]
		l.SetLoss(l.A(), 0)
		l.SetLoss(l.B(), 0)
		if h, spare := ix.spareOwner[i]; spare {
			if l.Up() {
				ix.rehome(h, false)
			}
			continue
		}
		if !l.Up() {
			l.SetUp(true)
		}
	}
}
