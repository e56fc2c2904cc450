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

// FaultFamilies lists every schedule family, sweep order.
func FaultFamilies() []FaultFamily {
	return []FaultFamily{FaultsLinkFlaps, FaultsBridgeRestarts, FaultsUnidirLoss, FaultsQueuePressure, FaultsPartition, FaultsMixed, FaultsHostMobility}
}

// FaultKind, FaultOp and their strict JSON codec live in ops.go: the op
// vocabulary is exported (shared with the serving daemon), the schedule
// generation below is the batch engine's own.

// Describe renders an op against a concrete instance (names, not indices).
func (ix *netIndex) describe(op FaultOp) string {
	s := op.String()
	switch op.Kind {
	case OpLinkDown, OpLinkUp, OpSetLoss, OpClearLoss:
		if op.Link >= 0 && op.Link < len(ix.linkNames) {
			s += " (" + ix.linkNames[op.Link] + ")"
		}
	case OpBridgeRestart:
		if op.Bridge >= 0 && op.Bridge < len(ix.built.Bridges) {
			s += " (" + ix.built.Bridges[op.Bridge].Name() + ")"
		}
	case OpBurst:
		if op.Src < len(ix.hostNames) && op.Dst < len(ix.hostNames) {
			s += " (" + ix.hostNames[op.Src] + " -> " + ix.hostNames[op.Dst] + ")"
		}
	case OpHostMove, OpHostReturn:
		if op.Host >= 0 && op.Host < len(ix.hostNames) {
			s += " (" + ix.hostNames[op.Host] + ")"
		}
	}
	return s
}

// generateOps draws one schedule of the given family. All randomness comes
// from plan; times land inside [0, phase) with repairs-in-flight room at
// the end left to the quiescence period.
func generateOps(family FaultFamily, plan *rand.Rand, ix *netIndex, phase time.Duration, burstPort *uint16) []FaultOp {
	var ops []FaultOp
	at := func(frac float64) time.Duration {
		return time.Duration(plan.Float64() * frac * float64(phase))
	}
	flap := func() {
		if len(ix.trunks) == 0 {
			return
		}
		link := ix.trunks[plan.Intn(len(ix.trunks))]
		start := at(0.6)
		dur := 20*time.Millisecond + time.Duration(plan.Intn(int(100*time.Millisecond)))
		ops = append(ops,
			FaultOp{At: start, Kind: OpLinkDown, Link: link},
			FaultOp{At: start + dur, Kind: OpLinkUp, Link: link})
	}
	restart := func() {
		ops = append(ops, FaultOp{At: at(0.8), Kind: OpBridgeRestart, Bridge: plan.Intn(len(ix.built.Bridges))})
	}
	loss := func() {
		if len(ix.trunks) == 0 {
			return
		}
		link := ix.trunks[plan.Intn(len(ix.trunks))]
		side := plan.Intn(2)
		start := at(0.5)
		dur := 50*time.Millisecond + time.Duration(plan.Intn(int(150*time.Millisecond)))
		ops = append(ops,
			FaultOp{At: start, Kind: OpSetLoss, Link: link, Side: side, Rate: 0.2 + 0.5*plan.Float64()},
			FaultOp{At: start + dur, Kind: OpClearLoss, Link: link, Side: side})
	}
	burst := func() {
		src := plan.Intn(len(ix.hostNames))
		dst := plan.Intn(len(ix.hostNames))
		if dst == src {
			dst = (dst + 1) % len(ix.hostNames)
		}
		*burstPort++
		ops = append(ops, FaultOp{
			At: at(0.5), Kind: OpBurst, Src: src, Dst: dst, Port: *burstPort,
			Count:    1000 + plan.Intn(1500),
			Interval: time.Duration(6+plan.Intn(8)) * time.Microsecond,
			Payload:  1000 + plan.Intn(400),
		})
	}
	part := func() {
		cut := ix.partitionCut(plan)
		if len(cut) == 0 {
			return
		}
		start := at(0.3)
		dur := 80*time.Millisecond + time.Duration(plan.Intn(int(120*time.Millisecond)))
		for _, li := range cut {
			ops = append(ops,
				FaultOp{At: start, Kind: OpLinkDown, Link: li},
				FaultOp{At: start + dur, Kind: OpLinkUp, Link: li})
		}
	}
	move := func() {
		if len(ix.mobile) == 0 {
			return
		}
		h := ix.mobile[plan.Intn(len(ix.mobile))]
		// Bound move+return (plus the 5 ms link-up announcement) inside
		// the fault phase so generated schedules always restore cabling
		// before heal.
		start := at(0.4)
		dur := 60*time.Millisecond + time.Duration(plan.Intn(int(120*time.Millisecond)))
		ops = append(ops,
			FaultOp{At: start, Kind: OpHostMove, Host: h},
			FaultOp{At: start + dur, Kind: OpHostReturn, Host: h})
	}
	switch family {
	case FaultsLinkFlaps:
		for i, n := 0, 2+plan.Intn(3); i < n; i++ {
			flap()
		}
	case FaultsBridgeRestarts:
		for i, n := 0, 1+plan.Intn(2); i < n; i++ {
			restart()
		}
	case FaultsUnidirLoss:
		for i, n := 0, 1+plan.Intn(2); i < n; i++ {
			loss()
		}
	case FaultsQueuePressure:
		for i, n := 0, 2+plan.Intn(2); i < n; i++ {
			burst()
		}
	case FaultsPartition:
		part()
	case FaultsHostMobility:
		for i, n := 0, 1+plan.Intn(2); i < n; i++ {
			move()
		}
	case FaultsMixed:
		flap()
		restart()
		loss()
		burst()
	default:
		panic(fmt.Sprintf("scenario: unknown fault family %q", family))
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops
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
func (ix *netIndex) scheduleOp(at time.Duration, owner netsim.Node, touch []netsim.Node, fn func()) {
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

// applyOps schedules every op at base+op.At. Each op is keyed by the
// entity it acts on and classified by the set of nodes whose state it
// touches: a flap of an intra-shard link, a loss knob, a burst, a restart
// whose neighbours are co-sharded all run inside their shard's lookahead
// windows; only ops that genuinely span shards pause the fabric as
// coordinator barriers. Burst sinks are bound up front (port bindings are
// not time-dependent), one per destination (host, port) however many
// bursts name it; the returned sinks are the ones this call bound, and
// report burst delivery for the result's traffic accounting. A burst's
// source socket is unbound (source port 0), so bursts never collide.
func applyOps(ix *netIndex, ops []FaultOp, base time.Duration) (offered int, sinks []*app.Sink) {
	for _, op := range ops {
		op := op
		switch op.Kind {
		case OpLinkDown, OpLinkUp:
			// SetUp purges both directions and notifies both end nodes.
			l := ix.link(op.Link)
			a, b := linkEnds(l)
			up := op.Kind == OpLinkUp
			ix.scheduleOp(base+op.At, a, []netsim.Node{a, b}, func() { l.SetUp(up) })
		case OpBridgeRestart:
			// Restart wipes the bridge and bounces every attached link,
			// which notifies each peer node.
			br := ix.bridge(op.Bridge)
			touch := []netsim.Node{br}
			for _, p := range br.Ports() {
				touch = append(touch, p.Peer().Node())
			}
			ix.scheduleOp(base+op.At, br, touch, func() { ix.bridge(op.Bridge).(restartable).Restart() })
		case OpSetLoss, OpClearLoss:
			// A direction's loss state is owned by the transmitting side.
			l := ix.link(op.Link)
			from := l.Ports()[op.Side]
			rate := op.Rate
			if op.Kind == OpClearLoss {
				rate = 0
			}
			ix.scheduleOp(base+op.At, from.Node(), []netsim.Node{from.Node()}, func() {
				l.SetLoss(from, rate)
			})
		case OpBurst:
			offered += op.Count
			if at := [2]int{op.Dst, int(op.Port)}; !ix.sinks[at] {
				ix.sinks[at] = true
				sinks = append(sinks, app.NewSink(ix.host(op.Dst), op.Port))
			}
			src := ix.host(op.Src)
			ix.scheduleOp(base+op.At, src, []netsim.Node{src}, func() {
				app.StartFlow(src, app.FlowConfig{
					DstIP: ix.host(op.Dst).IP(), DstPort: op.Port,
					PayloadSize: op.Payload, Interval: op.Interval, Count: op.Count,
				}, nil)
			})
		case OpHostMove, OpHostReturn:
			h := ix.host(op.Host)
			toSpare := op.Kind == OpHostMove
			ix.scheduleOp(base+op.At, h, ix.rehomeTouch(op.Host), func() { ix.rehome(op.Host, toSpare) })
		}
	}
	return offered, sinks
}

// rehomeTouch is the node set a host move touches: the station plus the
// edge bridges at both wall jacks (both links flip state).
func (ix *netIndex) rehomeTouch(host int) []netsim.Node {
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
func (ix *netIndex) rehome(host int, toSpare bool) {
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

// heal returns every link to service: all links up, all loss cleared —
// except spare jacks, whose healthy state is down (a station's home jack
// is the live one). A station stranded on its spare by a shrunk or
// replayed schedule is re-homed and re-announced, exactly what replugging
// the original cable does.
func heal(ix *netIndex) {
	for i, name := range ix.linkNames {
		l := ix.built.Links[name]
		l.SetLoss(l.A(), 0)
		l.SetLoss(l.B(), 0)
		if ix.isSpare[i] {
			if l.Up() {
				if h, ok := ix.spareOwner[i]; ok {
					ix.rehome(h, false)
				} else {
					l.SetUp(false)
				}
			}
			continue
		}
		if !l.Up() {
			l.SetUp(true)
		}
	}
}
