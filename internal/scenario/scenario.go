// Package scenario is the adversarial verification harness of the
// reproduction: it generates seeded random topologies, drives seeded
// fault schedules (link flaps, bridge restarts with table loss,
// unidirectional link degradation, queue-pressure bursts) against the
// running simulation, and checks a library of protocol invariants after
// every run — loop-freedom, flood bounds, lock-table consistency and
// path symmetry, eventual delivery, and pooled-frame refcount balance.
//
// The paper validates ARP-Path on one 4-NetFPGA testbed; its claims are
// really invariants that must hold on any topology under any failure
// schedule. A Scenario is one (topology family, fault family, seed)
// triple; Run executes it deterministically (same seed ⇒ same trace,
// checked by fingerprint), Replay re-executes it with an explicit fault
// schedule, and Shrink minimizes a failing schedule by replaying subsets.
package scenario

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/flowpath"
	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/topo"
)

// Config names one scenario. Topology, Faults and Seed fully determine
// the run; the remaining knobs default via withDefaults.
type Config struct {
	Seed     int64
	Topology string // required: a sweep family, topo.Families(true)
	Faults   FaultFamily

	// Protocol selects the bridging protocol under test by registry name
	// ("" = arppath). The invariant library adapts: the loop/flood/
	// delivery/drain checks are protocol-independent, table walks follow
	// whichever tables the protocol keeps (per-host for arppath and
	// tcppath's fallback plane, per-pair for flowpath), and tcppath runs
	// additionally classify flooded TCP SYNs as floods and must complete
	// a post-quiescence TCP transfer. A variant run of a seed is a
	// different scenario from the arppath run.
	Protocol topo.Protocol

	// Shards runs the simulation on an engine partitioned into
	// that many shards (0/1 = classic single engine). A scenario's trace,
	// fingerprint and verdict are bit-identical at every value — that
	// equivalence is itself a tested invariant of the sharded engine.
	Shards int
	// Big selects the larger topology tier (the sweep's "big"): the same
	// families, drawn several times bigger now that sweeps run in
	// parallel. Big and non-Big runs of one seed are different scenarios.
	Big bool
	// Proxy builds every bridge with the in-switch ARP proxy (§2.2,
	// EtherProxy) enabled, and arms the proxy-consistency invariant:
	// after quiescence no bridge may cache a binding that contradicts the
	// fabric's true IP→MAC ownership. A proxy run of a seed is a
	// different scenario from the plain run.
	Proxy bool
}

// A scenario's phase timing and probe counts are the same for every
// scenario.
const (
	// faultPhase is how long faults and background traffic run.
	faultPhase = 400 * time.Millisecond
	// quiesce is the settle time between healing and verification; it
	// must exceed the repair timeout so no repair spans the boundary.
	quiesce = 700 * time.Millisecond
	// verifyPairs is how many host pairs probe after quiescence.
	verifyPairs = 4
	// verifyPings is how many probes each pair sends.
	verifyPings = 3
)

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Protocol == "" {
		c.Protocol = topo.ARPPath
	}
	if c.Faults == "" {
		c.Faults = FaultsLinkFlaps
	}
	return c
}

// Name renders the scenario triple for reports.
func (c Config) Name() string {
	name := fmt.Sprintf("%s/%s/seed=%d", c.Topology, c.Faults, c.Seed)
	if c.Protocol != "" && c.Protocol != topo.ARPPath {
		name += "/" + string(c.Protocol)
	}
	if c.Big {
		name += "/big"
	}
	if c.Proxy {
		name += "/proxy"
	}
	return name
}

// Result is one scenario's outcome.
type Result struct {
	Config Config
	// Ops is the fault schedule that ran (generated, or the one given to
	// Replay). Feed it back to Replay to reproduce, or to Shrink.
	Ops []FaultOp
	// OpsApplied describes the schedule against the concrete instance.
	OpsApplied []string
	// Violations is every invariant breach; empty means the scenario
	// passed. ViolationsDropped counts breaches beyond the detail cap.
	Violations        []Violation
	ViolationsDropped int
	// Fingerprint digests the full tap trace; equal configs must yield
	// equal fingerprints. Events is the trace length.
	Fingerprint uint64
	Events      uint64
	// Topology shape.
	Bridges, Hosts, Links int
	// Traffic accounting: background/burst datagrams offered and
	// delivered during the fault phase (losses there are legal), and
	// verification probes offered and answered after quiescence (losses
	// there are an eventual-delivery violation). The warm wave re-probes
	// the same pairs without flushing ARP caches — the stale-ARP blackhole
	// regression (DESIGN.md §7 finding 2): before src-violation repair, a
	// warm-cache sender whose peer's position moved could blackhole here.
	BackgroundOffered, BackgroundDelivered int
	ProbesSent, ProbesAnswered             int
	WarmProbesSent, WarmProbesAnswered     int
	// Drained reports the engine ran to full quiescence (skipped when a
	// loop-class violation fires, since a live loop never drains).
	Drained bool
	// Barriers counts coordinator barriers of a sharded run (0 at shards
	// ≤ 1): the serial section the shard-local fault routing shrinks.
	Barriers uint64
}

// Failed reports whether any invariant was violated.
func (r *Result) Failed() bool { return len(r.Violations) > 0 || r.ViolationsDropped > 0 }

// Run executes the scenario cfg names, generating its fault schedule from
// the seed.
func Run(cfg Config) *Result { return run(cfg, nil) }

// Replay executes cfg with an explicit fault schedule instead of the
// generated one (everything else — topology, traffic, timing — is
// rebuilt identically from the seed). It is the primitive Shrink uses.
func Replay(cfg Config, ops []FaultOp) *Result { return run(cfg, ops) }

func run(cfg Config, replayOps []FaultOp) *Result {
	cfg = cfg.WithDefaults()
	plan := rand.New(rand.NewSource(cfg.Seed))
	built := buildFabric(cfg, plan)
	ix := NewIndex(built)
	chk := NewChecker(built)

	// The plan RNG stream must be identical between Run and Replay so the
	// background traffic and verification pairs stay fixed while the fault
	// schedule varies: always draw the generated schedule, then discard it
	// when an explicit one was provided.
	burstPort := uint16(7000)
	ops := generateOps(cfg.Faults, plan, ix, faultPhase, &burstPort)
	if replayOps != nil {
		ops = replayOps
	}

	res := &Result{
		Config:  cfg,
		Ops:     ops,
		Bridges: len(built.Bridges),
		Hosts:   len(built.Hosts),
		Links:   len(built.Links),
	}
	for _, op := range ops {
		res.OpsApplied = append(res.OpsApplied, ix.Describe(op))
	}

	base := built.Now()
	burstOffered, burstSinks := ix.Apply(ops, base)
	bgOffered, bgSinks := startBackground(plan, ix, faultPhase)
	pairs := choosePairs(plan, ix, verifyPairs)

	// Phase 1: faults + background traffic.
	built.RunFor(faultPhase)

	// Phase 2: heal everything, then quiesce. Guard windows close and
	// in-flight repairs resolve before verification starts.
	ix.Heal()
	built.RunFor(quiesce)
	chk.MarkStable(built.Now())

	// Phase 3: verification probes — fresh unicast exchanges between the
	// chosen pairs, each of which the healed fabric must deliver. The
	// pairs' ARP caches are flushed first so every exchange begins with
	// the discovery flood that establishes its paths: ARP-Path's delivery
	// promise is for ARP-initiated conversations. (Warm-cache delivery is
	// probed separately by the wave below.)
	for _, pr := range pairs {
		ix.host(pr[0]).ARP().Flush()
		ix.host(pr[1]).ARP().Flush()
	}
	answered := make([]int, len(pairs))
	completed := make([]bool, len(pairs))
	for i, pr := range pairs {
		i, pr := i, pr
		a, b := ix.host(pr[0]), ix.host(pr[1])
		built.Engine.At(built.Now()+time.Duration(i)*5*time.Millisecond, func() {
			a.PingSeries(b.IP(), verifyPings, 56, 20*time.Millisecond, time.Second, func(rs []host.PingResult) {
				for _, r := range rs {
					if r.Err == nil {
						answered[i]++
					}
				}
				completed[i] = true
			})
		})
	}
	res.ProbesSent = len(pairs) * verifyPings
	verifyWindow := time.Duration(len(pairs))*5*time.Millisecond +
		time.Duration(verifyPings)*20*time.Millisecond + 2*time.Second
	// Step through the window in slices and walk the tables of freshly
	// completed pairs between slices, while their locked-state entries are
	// still alive (a post-drain walk would see legal dead ends). The walk
	// happens with the fabric paused at a deterministic virtual instant —
	// in a sharded run that means every shard lined up on the slice
	// boundary — so the verdict is identical at any shard count.
	checked := make([]bool, len(pairs))
	walkFresh := func() {
		for i, pr := range pairs {
			if completed[i] && !checked[i] {
				checked[i] = true
				if answered[i] == verifyPings {
					chk.CheckPathSymmetry(ix.Hosts[pr[0]], ix.Hosts[pr[1]])
				}
			}
		}
	}
	runSliced(built, verifyWindow, walkFresh)

	// Phase 3b: the warm wave — the same pairs probe again WITHOUT
	// flushing ARP caches, exercising exactly the stale-ARP src-port
	// blackhole: a warm sender whose peer's locked position moved during
	// the preceding floods used to have its unicasts silently discarded
	// forever. With src-violation repair (core), these probes must also
	// deliver. This wave is the scenario-engine regression for that fix.
	// Probes are spaced wider than the lock window: a src-violation repair
	// floods a fresh PathRequest, and until its race guards expire,
	// stale-path frames are still (correctly, §2.1.1) filtered — the
	// conversation can only be observed unblocked once the guards are
	// gone. The pairs are a host-disjoint subset of the verification
	// pairs: two warm conversations sharing an endpoint can re-arm each
	// other's guards indefinitely (each repair flood guards the shared
	// host's position for another lock window), which is legal protocol
	// behavior, not a blackhole — the invariant needs interference-free
	// conversations to be meaningful.
	const warmSpacing = 250 * time.Millisecond
	warmPairs := disjointPairs(pairs)
	warmAnswered := make([]int, len(warmPairs))
	warmLastOK := make([]bool, len(warmPairs))
	for i, pr := range warmPairs {
		i, pr := i, pr
		a, b := ix.host(pr[0]), ix.host(pr[1])
		built.Engine.At(built.Now()+time.Duration(i)*5*time.Millisecond, func() {
			a.PingSeries(b.IP(), verifyPings, 56, warmSpacing, time.Second, func(rs []host.PingResult) {
				for _, r := range rs {
					if r.Err == nil {
						warmAnswered[i]++
					}
				}
				warmLastOK[i] = len(rs) > 0 && rs[len(rs)-1].Err == nil
			})
		})
	}
	res.WarmProbesSent = len(warmPairs) * verifyPings
	warmWindow := time.Duration(len(pairs))*5*time.Millisecond +
		time.Duration(verifyPings)*warmSpacing + 2*time.Second
	built.RunFor(warmWindow)

	// Phase 3c (tcppath only): a post-quiescence TCP transfer must
	// complete — the per-connection machinery's delivery analog, opening
	// with a SYN flood through whatever state the healed fabric kept.
	var tcpRep *app.StreamReport
	tcpProbe := cfg.Protocol == flowpath.ProtoTCPPath && len(pairs) > 0
	if tcpProbe {
		srv, cli := ix.host(pairs[0][0]), ix.host(pairs[0][1])
		scfg := app.DefaultStreamConfig()
		scfg.Size = 64 << 10
		built.Engine.At(built.Now(), func() {
			app.StartStream(srv, cli, scfg, func(r *app.StreamReport) { tcpRep = r })
		})
		built.RunFor(15 * time.Second)
	}

	// Phase 4: drain to full quiescence and run the post-mortem checks.
	// A live forwarding loop regenerates events forever, so when the
	// online checkers already caught one the drain is skipped — the
	// loop-class violation is the verdict.
	if !chk.LoopSuspected() {
		built.Run()
		res.Drained = true
		chk.CheckFrameDrain()
		chk.CheckTables()
		chk.CheckProxyCaches()
		for i, pr := range pairs {
			pairName := ix.Hosts[pr[0]] + "<->" + ix.Hosts[pr[1]]
			chk.CheckDelivery(pairName, verifyPings, answered[i])
		}
		for i, pr := range warmPairs {
			pairName := ix.Hosts[pr[0]] + "<->" + ix.Hosts[pr[1]]
			chk.CheckWarmDelivery(pairName, verifyPings, warmAnswered[i], warmLastOK[i])
		}
		if tcpProbe {
			pairName := ix.Hosts[pairs[0][0]] + "<->" + ix.Hosts[pairs[0][1]]
			chk.CheckTCPDelivery(pairName, tcpRep != nil && tcpRep.Complete)
		}
	}

	res.BackgroundOffered = burstOffered
	for _, s := range burstSinks {
		res.BackgroundDelivered += s.Count()
	}
	res.BackgroundOffered += bgOffered
	for _, s := range bgSinks {
		res.BackgroundDelivered += s.Count()
	}
	for _, n := range answered {
		res.ProbesAnswered += n
	}
	for _, n := range warmAnswered {
		res.WarmProbesAnswered += n
	}
	res.Violations = chk.Violations()
	res.ViolationsDropped = chk.Dropped()
	res.Fingerprint = chk.Fingerprint()
	res.Events = chk.Events()
	res.Barriers = built.Network.Barriers()
	return res
}

// runSliced advances the simulation by window in fixed slices, invoking
// between (with the fabric paused at a deterministic virtual instant) after
// each slice. Sharded runs pause with every shard lined up on the slice
// boundary, so anything `between` reads — lock tables across shards, probe
// completions — observes the same state at any shard count.
func runSliced(built *topo.Built, window time.Duration, between func()) {
	const slice = 10 * time.Millisecond
	end := built.Now() + window
	for built.Now() < end {
		d := slice
		if rem := end - built.Now(); rem < d {
			d = rem
		}
		built.RunFor(d)
		between()
	}
}

// startBackground launches the steady low-rate UDP flows that run during
// the fault phase, so faults always hit a network carrying traffic.
// Losses here are legal (the network is being actively broken); the
// counts feed the result's traffic accounting only.
func startBackground(plan *rand.Rand, ix *Index, phase time.Duration) (offered int, sinks []*app.Sink) {
	flows := 2 + plan.Intn(2)
	const interval = time.Millisecond
	count := int(phase / (2 * interval))
	port := uint16(6000)
	for i := 0; i < flows; i++ {
		src := plan.Intn(len(ix.Hosts))
		dst := plan.Intn(len(ix.Hosts))
		if dst == src {
			dst = (dst + 1) % len(ix.Hosts)
		}
		port++
		sinks = append(sinks, app.NewSink(ix.host(dst), port))
		offered += count
		srcHost, dstIP := ix.host(src), ix.host(dst).IP()
		p := port
		ix.built.Engine.At(ix.built.Now(), func() {
			app.StartFlow(srcHost, app.FlowConfig{
				DstIP: dstIP, DstPort: p, SrcPort: p,
				PayloadSize: 200, Interval: interval, Count: count,
			}, nil)
		})
	}
	return offered, sinks
}

// disjointPairs greedily selects (in order, deterministically) a maximal
// subset of pairs sharing no host.
func disjointPairs(pairs [][2]int) [][2]int {
	used := make(map[int]bool)
	var out [][2]int
	for _, pr := range pairs {
		if used[pr[0]] || used[pr[1]] {
			continue
		}
		used[pr[0]] = true
		used[pr[1]] = true
		out = append(out, pr)
	}
	return out
}

// choosePairs draws n distinct host pairs for verification.
func choosePairs(plan *rand.Rand, ix *Index, n int) [][2]int {
	hosts := len(ix.Hosts)
	if n > hosts*(hosts-1)/2 {
		n = hosts * (hosts - 1) / 2
	}
	seen := make(map[[2]int]bool)
	var pairs [][2]int
	for len(pairs) < n {
		a, b := plan.Intn(hosts), plan.Intn(hosts)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		pairs = append(pairs, [2]int{a, b})
	}
	return pairs
}
