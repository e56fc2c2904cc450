package experiments

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/flowpath"
	"repro/internal/layers"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// This file is the eviction-pressure experiment behind the tables
// workload: the All-Path variants driven through 10⁵–10⁶ distinct
// host conversations over a small fixed fabric, with the variant's
// per-path table (per-host for ARP-Path, per-pair for Flow-Path,
// per-connection for TCP-Path) swept through capacity bounds and
// eviction policies (DESIGN.md §12). Each conversation is one short
// exchange — ARP discovery, a TCP open, one data segment, and a delayed
// revisit probe that lands after eviction may have removed the path —
// so the sweep exposes exactly the axes a bounded table trades:
// occupancy (resident entries vs the corpse-inclusive map size),
// re-discovery storms (repairs and fallbacks triggered when a revisit
// misses), flood amplification, and completion.
//
// The conversation population is far larger than any plausible station
// count, so stations multiplex: each of the 8 edge stations impersonates
// many synthetic hosts, deriving every identity (MAC, IP, owning
// station) as a pure function of the conversation number. No per-
// conversation state is kept anywhere but in the bridges under test —
// which is the point. Everything reported is deterministic: a function
// of the seed alone, bit-identical at any shard count, so CI diffs the
// JSON artifact across -shards 1 and 4.

// tablesStations is the fixed station/bridge count of the pressure
// fabric (a ring of 8 with 4 chords; degree 3, diameter 2).
const tablesStations = 8

// Synthetic host numbering: conversation c runs from host 2c (the
// opener) to host 2c+1 (the responder).
const (
	tablesFirstDataSeq = 100 // the segment that completes a conversation
	tablesRevisitSeq   = 200 // the delayed re-discovery probe

	// tablesArrival is the mean inter-arrival spacing of conversation
	// starts (exponential, drawn from the plan stream).
	tablesArrival = 100 * time.Microsecond
	// tablesRevisit is the delay before each conversation's re-discovery
	// probe: long enough for eviction pressure to have recycled the path,
	// far shorter than any timeout.
	tablesRevisit = time.Second
)

// TablesConfig parameterizes the eviction-pressure experiment.
type TablesConfig struct {
	Seed int64
	// Conversations is the number of distinct host conversations (each
	// contributes two synthetic hosts and one TCP connection).
	Conversations int
}

// DefaultTablesConfig is the tables workload's default.
func DefaultTablesConfig(seed int64, conversations int) TablesConfig {
	return TablesConfig{Seed: seed, Conversations: conversations}.WithDefaults()
}

// WithDefaults fills unset fields.
func (c TablesConfig) WithDefaults() TablesConfig {
	if c.Conversations == 0 {
		c.Conversations = 100_000
	}
	return c
}

// TablesPoint is one cell of the capacity sweep: a per-bridge bound on
// the variant's path table plus the eviction policy enforcing it.
type TablesPoint struct {
	Policy   string
	Capacity int
}

// tablesPoints is the sweep: the unbounded lazy-timeout baseline, then
// LRU at two pressure levels, then clock at the harsher one (so the two
// policies are directly comparable where it hurts).
func tablesPoints(conversations int) []TablesPoint {
	lo, hi := conversations/8, conversations/32
	return []TablesPoint{
		{Policy: "timeout", Capacity: 0},
		{Policy: "lru", Capacity: lo},
		{Policy: "lru", Capacity: hi},
		{Policy: "clock", Capacity: hi},
	}
}

// tablesProtocolConfig builds the variant's protocol config carrying the
// sweep point — the same table_capacity/…_policy extensions a fabric
// Spec can set (pkg/fabric).
func tablesProtocolConfig(proto topo.Protocol, pt TablesPoint) any {
	policy := pt.Policy
	if policy == "timeout" {
		policy = "" // the registry's spelling of the baseline
	}
	switch proto {
	case topo.ARPPath:
		return &core.Config{TableCapacity: pt.Capacity, TablePolicy: policy}
	case flowpath.ProtoFlowPath:
		return &flowpath.Config{PairCapacity: pt.Capacity, PairPolicy: policy}
	case flowpath.ProtoTCPPath:
		return &flowpath.TCPConfig{ConnCapacity: pt.Capacity, ConnPolicy: policy}
	default:
		panic(fmt.Sprintf("experiments: no tables config for protocol %q", proto))
	}
}

// --- synthetic host identities -----------------------------------------

// tablesMix is the SplitMix64 finalizer: the pure hash every identity
// derivation goes through, so station assignment needs no tables.
func tablesMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// tablesSrcStation is the station originating conversation c.
func tablesSrcStation(c int) int {
	return int(tablesMix(uint64(c)*2+1) % tablesStations)
}

// tablesDstStation is the station answering conversation c — by
// construction never the originating one (a same-station conversation
// would never leave its edge port).
func tablesDstStation(c int) int {
	s := tablesSrcStation(c)
	return (s + 1 + int(tablesMix(uint64(c)*2+2)%(tablesStations-1))) % tablesStations
}

// tablesMAC is synthetic host id's MAC: a locally administered unicast
// prefix over the 32-bit id.
func tablesMAC(id int) layers.MAC {
	return layers.MAC{0x0A, 0xFA, byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
}

// tablesIP packs id into 10/8 (ids stay below 2²⁴: 8M conversations).
func tablesIP(id int) layers.Addr4 {
	return layers.Addr4{10, byte(id >> 16), byte(id >> 8), byte(id)}
}

// tablesID recovers a synthetic host id from its IP.
func tablesID(ip layers.Addr4) (int, bool) {
	if ip[0] != 10 {
		return 0, false
	}
	return int(ip[1])<<16 | int(ip[2])<<8 | int(ip[3]), true
}

// tablesPort gives openers and responders fixed TCP ports; connection
// keys are unique through the IP pair alone.
func tablesPort(id int) uint16 {
	if id&1 == 0 {
		return 40000
	}
	return 443
}

// tablesStart is one conversation origination: which conversation, when
// (offset from the drive's base time).
type tablesStart struct {
	conv  int
	start time.Duration
}

// tablesSchedule compiles the arrival schedule once per sweep: the plan
// stream is independent of any build, so every (variant, point) run
// drives the identical workload. Starts are appended in conversation
// order, so each station's slice is sorted by start time.
func tablesSchedule(cfg TablesConfig) [][]tablesStart {
	plan := rand.New(rand.NewSource(cfg.Seed*0x9E3779B9 + 11))
	perStation := make([][]tablesStart, tablesStations)
	at := time.Duration(0)
	for c := 0; c < cfg.Conversations; c++ {
		at += time.Duration(plan.ExpFloat64() * float64(tablesArrival))
		s := tablesSrcStation(c)
		perStation[s] = append(perStation[s], tablesStart{conv: c, start: at})
	}
	return perStation
}

// --- the multiplexing edge station -------------------------------------

// muxStation is an edge node impersonating many synthetic hosts. It
// keeps no per-conversation state: every frame it receives carries
// enough identity (via the pure-function numbering) to derive the
// conversation, the role and the owning station, so a million
// conversations cost the station nothing — all growth lands in the
// bridge tables under test.
type muxStation struct {
	name string
	id   int
	proc *sim.Proc
	port *netsim.Port

	starts []tablesStart
	next   int
	base   time.Duration

	txBuf *layers.SerializeBuffer

	completed int
	revisited int
	finished  time.Duration // virtual time of the last completion
}

// newMuxStation creates station i on net (cable it afterwards).
func newMuxStation(net *netsim.Network, i int) *muxStation {
	m := &muxStation{
		name:  fmt.Sprintf("M%d", i+1),
		id:    i,
		txBuf: layers.NewSerializeBuffer(),
	}
	net.AddNode(m)
	m.proc = net.Proc(m.name)
	return m
}

// Name implements netsim.Node.
func (m *muxStation) Name() string { return m.name }

// AttachPort implements netsim.Node.
func (m *muxStation) AttachPort(p *netsim.Port) { m.port = p }

// PortStatusChanged implements netsim.Node.
func (m *muxStation) PortStatusChanged(*netsim.Port, bool) {}

// begin starts the station's origination chain (call under the engine at
// the drive's base time). Only the next origination is ever scheduled,
// so a million pending conversations never hold a million timers.
func (m *muxStation) begin(starts []tablesStart) {
	m.starts, m.next = starts, 0
	m.base = m.proc.Now()
	m.pump()
}

// pump schedules the next origination.
func (m *muxStation) pump() {
	if m.next >= len(m.starts) {
		return
	}
	st := m.starts[m.next]
	m.next++
	d := m.base + st.start - m.proc.Now()
	if d < 0 {
		d = 0
	}
	m.proc.Schedule(m.proc.Now()+d, func() {
		m.open(st.conv)
		m.pump()
	})
}

// open originates conversation c: a textbook ARP request for the
// responder's IP, from the opener's synthetic identity.
func (m *muxStation) open(c int) {
	src := 2 * c
	m.send(
		&layers.Ethernet{Dst: layers.BroadcastMAC, Src: tablesMAC(src), EtherType: layers.EtherTypeARP},
		&layers.ARP{
			Operation: layers.ARPRequest,
			SenderHW:  tablesMAC(src), SenderIP: tablesIP(src),
			TargetIP: tablesIP(src + 1),
		},
	)
}

// send serializes into the reusable scratch and transmits; Port.Send
// copies into a pooled frame before returning.
func (m *muxStation) send(ls ...layers.SerializableLayer) {
	if err := layers.SerializeLayers(m.txBuf, layers.FixAll, ls...); err != nil {
		panic(fmt.Sprintf("experiments: %s serialize: %v", m.name, err))
	}
	m.port.Send(m.txBuf.Bytes())
}

// sendSeg emits one TCP-lite segment from synthetic host `from` to `to`.
func (m *muxStation) sendSeg(from, to int, seq, ack uint32, flags uint8) {
	m.send(
		&layers.Ethernet{Dst: tablesMAC(to), Src: tablesMAC(from), EtherType: layers.EtherTypeIPv4},
		&layers.IPv4{TTL: 64, Protocol: layers.IPProtoTCPLite, Src: tablesIP(from), Dst: tablesIP(to)},
		&layers.TCPLite{
			SrcPort: tablesPort(from), DstPort: tablesPort(to),
			Seq: seq, Ack: ack, Flags: flags, Window: 65535,
		},
	)
}

// HandleFrame implements netsim.Node: derive the conversation from the
// frame's addresses, check ownership, answer. Frames for hosts homed
// elsewhere (flood copies) and bridge control traffic are ignored.
func (m *muxStation) HandleFrame(_ *netsim.Port, f *netsim.Frame) {
	var eth layers.Ethernet
	if eth.DecodeFromBytes(f.Bytes()) != nil {
		return
	}
	switch eth.EtherType {
	case layers.EtherTypeARP:
		var a layers.ARP
		if a.DecodeFromBytes(eth.Payload()) == nil {
			m.handleARP(&a)
		}
	case layers.EtherTypeIPv4:
		var ip layers.IPv4
		if ip.DecodeFromBytes(eth.Payload()) != nil || ip.Protocol != layers.IPProtoTCPLite {
			return
		}
		var t layers.TCPLite
		if t.DecodeFromBytes(ip.Payload()) == nil {
			m.handleTCP(&ip, &t)
		}
	}
}

// handleARP answers discovery: requests for responders we home get a
// unicast reply; replies to openers we home advance to the TCP open.
func (m *muxStation) handleARP(a *layers.ARP) {
	switch a.Operation {
	case layers.ARPRequest:
		id, ok := tablesID(a.TargetIP)
		if !ok || id&1 != 1 || tablesDstStation(id>>1) != m.id {
			return
		}
		m.send(
			&layers.Ethernet{Dst: a.SenderHW, Src: tablesMAC(id), EtherType: layers.EtherTypeARP},
			&layers.ARP{
				Operation: layers.ARPReply,
				SenderHW:  tablesMAC(id), SenderIP: a.TargetIP,
				TargetHW: a.SenderHW, TargetIP: a.SenderIP,
			},
		)
	case layers.ARPReply:
		id, ok := tablesID(a.TargetIP) // the opener the reply answers
		if !ok || id&1 != 0 || tablesSrcStation(id>>1) != m.id {
			return
		}
		m.sendSeg(id, id+1, 1, 0, layers.TCPFlagSYN)
	}
}

// handleTCP runs the rest of a conversation statelessly off the segment.
func (m *muxStation) handleTCP(ip *layers.IPv4, t *layers.TCPLite) {
	did, ok := tablesID(ip.Dst)
	if !ok {
		return
	}
	c := did >> 1
	syn := t.Flags&layers.TCPFlagSYN != 0
	ack := t.Flags&layers.TCPFlagACK != 0
	switch {
	case syn && !ack: // opener's SYN, terminating at the responder
		if did&1 != 1 || tablesDstStation(c) != m.id {
			return
		}
		m.sendSeg(did, did^1, 1, t.Seq+1, layers.TCPFlagSYN|layers.TCPFlagACK)
	case syn && ack: // SYN|ACK back at the opener: send data, arm the probe
		if did&1 != 0 || tablesSrcStation(c) != m.id {
			return
		}
		m.sendSeg(did, did^1, tablesFirstDataSeq, 0, layers.TCPFlagACK)
		m.proc.Schedule(m.proc.Now()+tablesRevisit, func() {
			m.sendSeg(did, did^1, tablesRevisitSeq, 0, layers.TCPFlagACK)
		})
	case t.Seq == tablesFirstDataSeq: // the completing segment
		if did&1 != 1 || tablesDstStation(c) != m.id {
			return
		}
		m.completed++
		if now := m.proc.Now(); now > m.finished {
			m.finished = now
		}
	case t.Seq == tablesRevisitSeq: // the re-discovery probe survived
		if did&1 != 1 || tablesDstStation(c) != m.id {
			return
		}
		m.revisited++
	}
}

var _ netsim.Node = (*muxStation)(nil)

// --- the fabric and the drive ------------------------------------------

// tablesFabric builds the fixed pressure fabric: 8 bridges in a ring
// with 4 chords (degree 3), one mux station per bridge. The wiring is
// deterministic by construction; only the protocol and its table bound
// vary across the sweep. It is no Spec's fabric: a ring with chords is no
// family, and no family attaches the synthetic multiplexing stations.
func tablesFabric(o topo.Options) (*topo.Built, []*muxStation) {
	b := topo.NewBuilder(o)
	brs := make([]topo.Bridge, tablesStations)
	for i := range brs {
		brs[i] = b.AddBridge(fmt.Sprintf("S%d", i+1))
	}
	for i := range brs {
		b.Connect(brs[i], brs[(i+1)%tablesStations])
	}
	for i := 0; i < tablesStations/2; i++ {
		b.Connect(brs[i], brs[i+tablesStations/2])
	}
	stations := make([]*muxStation, tablesStations)
	for i := range stations {
		stations[i] = newMuxStation(b.Net(), i)
		b.Connect(stations[i], brs[i])
	}
	return &topo.Built{Net: b.Build()}, stations
}

// TablesRun is the outcome of one (variant, point) drive. All fields
// are deterministic (a function of the seed alone).
type TablesRun struct {
	Conversations int
	Completed     int           // conversations whose first data segment arrived
	Revisited     int           // revisit probes that still found a path
	FinishedAt    time.Duration // virtual time of the last completion (from base)
	EntriesTotal  int           // map sizes incl. expired corpses, summed over bridges
	ResidentTotal int           // live entries, summed over bridges
	PeakMax       int           // largest single-bridge occupancy seen
	Evictions     uint64        // capacity evictions of live entries
	Floods        uint64        // flood relays (broadcast + SYN races)
	Rediscoveries uint64        // repairs, path requests and fallbacks after misses
	Events        uint64
}

// driveTables runs the compiled schedule over a built pressure fabric.
func driveTables(built *topo.Built, stations []*muxStation, schedule [][]tablesStart, cfg TablesConfig) *TablesRun {
	run := &TablesRun{Conversations: cfg.Conversations}
	eventsBefore := built.Network.Processed()
	base := built.Now()
	for i, m := range stations {
		i, m := i, m
		built.Engine.At(base, func() { m.begin(schedule[i]) })
	}
	span := time.Duration(0)
	for _, sts := range schedule {
		if n := len(sts); n > 0 && sts[n-1].start > span {
			span = sts[n-1].start
		}
	}
	built.RunFor(span + tablesRevisit + time.Second)
	built.Run()

	for _, m := range stations {
		run.Completed += m.completed
		run.Revisited += m.revisited
		if m.finished > base && m.finished-base > run.FinishedAt {
			run.FinishedAt = m.finished - base
		}
	}
	for _, br := range built.Bridges {
		collectTables(run, br)
	}
	run.Events = built.Network.Processed() - eventsBefore
	return run
}

// collectTables folds one bridge's primary path table and storm counters
// into the run. The "primary" table is the one the sweep bounds
// (PathTables index 0): the per-host table for ARP-Path, the pair table
// for Flow-Path, the connection table for TCP-Path.
func collectTables(run *TablesRun, br topo.Bridge) {
	t := br.PathTables()[0]
	run.EntriesTotal += t.Entries()
	run.ResidentTotal += t.Len()
	run.PeakMax = max(run.PeakMax, t.PeakEntries())
	run.Evictions += t.Evictions()
	// Every All-Path variant keeps the family's one counter block; the
	// variant-only fields are zero where they do not apply.
	s := br.(interface{ Stats() core.Stats }).Stats()
	run.Floods += s.BroadcastRelayed + s.SynFloods
	run.Rediscoveries += s.Fallbacks + s.RepairsStarted + s.PathRequestsSent
}

// TablesResult is one cell of the sweep.
type TablesResult struct {
	Variant  topo.Protocol
	Policy   string
	Capacity int
	Run      *TablesRun
}

// RunTables drives the full sweep on one engine: every All-Path variant
// through every capacity point, identical workload everywhere.
func RunTables(cfg TablesConfig) []*TablesResult { return RunTablesSharded(cfg, topo.Options{}) }

// RunTablesSharded is RunTables with every cell's fabric split across
// base's shard count and watched by base's observers; every result is
// the same at any count.
func RunTablesSharded(cfg TablesConfig, base topo.Options) []*TablesResult {
	cfg = cfg.WithDefaults()
	schedule := tablesSchedule(cfg)
	var results []*TablesResult
	for _, proto := range []topo.Protocol{topo.ARPPath, flowpath.ProtoFlowPath, flowpath.ProtoTCPPath} {
		for _, pt := range tablesPoints(cfg.Conversations) {
			o := topo.DefaultOptions(proto, cfg.Seed) // what Spec.paperOptions compiles to
			o.Shards, o.Observers = base.Shards, base.Observers
			o.ProtocolConfig = tablesProtocolConfig(proto, pt)
			built, stations := tablesFabric(o)
			run := driveTables(built, stations, schedule, cfg)
			finishNet(built)
			results = append(results, &TablesResult{
				Variant: proto, Policy: pt.Policy, Capacity: pt.Capacity, Run: run,
			})
		}
	}
	return results
}

// TablesTable renders the sweep. Every cell is deterministic:
// bit-identical at any shard count and GOMAXPROCS.
func TablesTable(rs []*TablesResult) *metrics.Table {
	t := metrics.NewTable("Bounded path tables under conversation churn (per-bridge capacity × eviction policy; same seed, same schedule, only the bound differs)",
		"variant", "policy", "capacity", "convs", "completed", "revisited", "finish (virt)",
		"entries Σ", "resident Σ", "peak max", "evictions", "floods", "rediscoveries")
	for _, r := range rs {
		t.AddRow(string(r.Variant), r.Policy, r.Capacity, r.Run.Conversations,
			r.Run.Completed, r.Run.Revisited, r.Run.FinishedAt.Round(time.Microsecond),
			r.Run.EntriesTotal, r.Run.ResidentTotal, r.Run.PeakMax,
			r.Run.Evictions, r.Run.Floods, r.Run.Rediscoveries)
	}
	return t
}

// tablesRecord is the JSON artifact's row. Deliberately free of any
// machine- or shard-dependent field: CI diffs this file byte for byte
// between -shards 1 and -shards 4.
type tablesRecord struct {
	Variant       string  `json:"variant"`
	Policy        string  `json:"policy"`
	Capacity      int     `json:"capacity"`
	Conversations int     `json:"conversations"`
	Completed     int     `json:"completed"`
	Revisited     int     `json:"revisited"`
	FinishedNS    int64   `json:"finished_virtual_ns"`
	EntriesTotal  int     `json:"entries_total"`
	ResidentTotal int     `json:"resident_total"`
	PeakMax       int     `json:"peak_entries_max"`
	Evictions     uint64  `json:"evictions_total"`
	Floods        uint64  `json:"floods_relayed"`
	FloodAmp      float64 `json:"flood_amplification"`
	Rediscoveries uint64  `json:"rediscoveries"`
	Events        uint64  `json:"events"`
}

// TablesJSON renders the sweep as the deterministic bench artifact.
func TablesJSON(rs []*TablesResult) ([]byte, error) {
	records := make([]tablesRecord, 0, len(rs))
	for _, r := range rs {
		rec := tablesRecord{
			Variant: string(r.Variant), Policy: r.Policy, Capacity: r.Capacity,
			Conversations: r.Run.Conversations, Completed: r.Run.Completed,
			Revisited: r.Run.Revisited, FinishedNS: int64(r.Run.FinishedAt),
			EntriesTotal: r.Run.EntriesTotal, ResidentTotal: r.Run.ResidentTotal,
			PeakMax: r.Run.PeakMax, Evictions: r.Run.Evictions,
			Floods: r.Run.Floods, Rediscoveries: r.Run.Rediscoveries,
			Events: r.Run.Events,
		}
		if r.Run.Conversations > 0 {
			rec.FloodAmp = float64(r.Run.Floods) / float64(r.Run.Conversations)
		}
		records = append(records, rec)
	}
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
