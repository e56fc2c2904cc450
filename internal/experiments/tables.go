package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/host"
	"repro/internal/host/app"
	"repro/internal/layers"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/stp"
	"repro/internal/topo"
)

// --- T1: §1/§2.2 properties — loop freedom, no blocked links ----------

// T1Row is one random-topology trial of the properties table.
type T1Row struct {
	Trial        int
	Bridges      int
	Links        int
	FloodCopies  uint64 // broadcast deliveries for one ARP exchange
	CopyBound    uint64 // 2·links (the loop-freedom bound)
	CopiesToHost int    // copies the destination host saw (must be 1)
	BlockedPorts int    // ARP-Path has no port blocking at all
	STPBlocked   int    // same topology under STP, for contrast
}

// RunT1Properties measures flood containment on seeded random topologies:
// trial i runs at seed o.Seed+i.
func RunT1Properties(o topo.Options, trials int) []T1Row {
	var rows []T1Row
	for trial := 0; trial < trials; trial++ {
		o := o
		o.Seed += int64(trial)
		n := 4 + int(o.Seed)%5
		shape := topo.TopologySpec{Family: "random", N: n, ExtraEdges: 2 + trial%3}
		row := T1Row{Trial: trial}

		built := build(defaults(o, topo.ARPPath), shape)
		row.Bridges = len(built.Bridges)
		trunkLinks := 0
		for _, l := range built.Network.Links() {
			if built.IsTrunk(l) {
				trunkLinks++
			}
		}
		row.Links = trunkLinks
		row.CopyBound = uint64(2 * trunkLinks)

		copies := countBroadcastDeliveries(built.Network)
		h1 := built.Host("H1")
		hN := built.Host(fmt.Sprintf("H%d", n))
		// Count broadcast ARP copies delivered to the destination host's
		// port: the first-port rule must reduce the looped flood to one.
		toHost := 0
		built.Network.Tap(func(ev netsim.TapEvent) {
			if ev.Kind == netsim.TapDeliver && ev.To.Node() == netsim.Node(hN) &&
				layers.FrameDst(ev.Frame).IsBroadcast() &&
				layers.FrameEtherType(ev.Frame) == layers.EtherTypeARP {
				toHost++
			}
		})
		built.Engine.At(built.Now(), func() {
			h1.Ping(hN.IP(), 0, time.Second, func(host.PingResult) {})
		})
		built.RunFor(2 * time.Second)
		row.FloodCopies = *copies
		row.CopiesToHost = toHost
		row.BlockedPorts = 0 // ARP-Path has no blocking state, by construction
		finishNet(built)

		// Same wiring under STP: count blocked ports after convergence.
		stpBuilt := build(defaults(o, topo.STP), shape)
		for _, br := range stpBuilt.Bridges {
			sb := br.(*stp.Bridge)
			for _, p := range sb.Ports() {
				if sb.State(p) == stp.StateBlocking {
					row.STPBlocked++
				}
			}
		}
		// The warm-up horizon falls exactly on a hello tick, so BPDUs sent
		// at that instant are still in flight; land them before the net is
		// dropped or their pooled frames stay referenced forever.
		stpBuilt.RunFor(time.Millisecond)
		finishNet(stpBuilt)
		rows = append(rows, row)
	}
	return rows
}

// T1Table renders the properties comparison.
func T1Table(rows []T1Row) *metrics.Table {
	t := metrics.NewTable("T1 — loop-freedom and link usage on random topologies (one ARP exchange)",
		"trial", "bridges", "trunk links", "flood copies", "bound 2·L+hosts", "dst copies", "arp-path blocked", "stp blocked")
	for _, r := range rows {
		t.AddRow(r.Trial, r.Bridges, r.Links, r.FloodCopies,
			r.CopyBound+uint64(r.Bridges), r.CopiesToHost, r.BlockedPorts, r.STPBlocked)
	}
	return t
}

// --- T2: §2.2 load distribution and path diversity --------------------

// T2Result compares link utilization of concurrent flows on a fat-tree.
type T2Result struct {
	Protocol topo.Protocol
	Flows    int
	// TrunkLinks is the number of bridge-bridge links in the fabric.
	TrunkLinks int
	// UsedLinks carried at least one data frame.
	UsedLinks int
	// MaxBusy and MeanBusy summarize per-direction serialization time on
	// trunk links.
	MaxBusy, MeanBusy time.Duration
	// Jain is the fairness index of per-link busy time (1 = even).
	Jain float64
	// Delivered counts datagrams that reached their sinks.
	Delivered int
	Sent      int
}

// RunT2Load runs 8 cross-pod UDP flows on a k=4 fat tree bridged by proto,
// at o's seed and shard count.
func RunT2Load(o topo.Options, proto topo.Protocol) *T2Result {
	built := build(defaults(o, proto), topo.TopologySpec{Family: "fattree", N: 4})
	defer finishNet(built)
	res := &T2Result{Protocol: proto}

	// Account *data* wire time per trunk-link direction via a tap: link
	// BusyTime alone would also count BPDUs and HELLOs, hiding the
	// contrast between the protocols.
	dataBusy := make(map[*netsim.Port]time.Duration)
	built.Network.Tap(func(ev netsim.TapEvent) {
		if ev.Kind != netsim.TapSend || layers.FrameEtherType(ev.Frame) != layers.EtherTypeIPv4 {
			return
		}
		if !built.IsTrunk(ev.From.Link()) {
			return
		}
		wire := layers.WireBytes(len(ev.Frame))
		rate := ev.From.Link().Config().Rate
		dataBusy[ev.From] += time.Duration(wire) * 8 * time.Duration(time.Second) / time.Duration(rate)
	})

	// Pair host i with host i+8 (always cross-pod on k=4: hosts 1..4 are
	// pod 1, 5..8 pod 2, ...).
	type pair struct{ src, dst int }
	var pairs []pair
	for i := 1; i <= 8; i++ {
		pairs = append(pairs, pair{i, i + 8})
	}
	res.Flows = len(pairs)

	sinks := make([]*app.Sink, len(pairs))
	for i, p := range pairs {
		sinks[i] = app.NewSink(built.Host(fmt.Sprintf("H%d", p.dst)), 7000)
	}
	// Stagger flow starts so each discovery race sees the queues built up
	// by earlier flows — the mechanism behind ARP-Path's load spreading.
	start := built.Now()
	for i, p := range pairs {
		i, p := i, p
		built.Engine.At(start+time.Duration(i)*2*time.Millisecond, func() {
			app.StartFlow(built.Host(fmt.Sprintf("H%d", p.src)), app.FlowConfig{
				DstIP:       built.Host(fmt.Sprintf("H%d", p.dst)).IP(),
				DstPort:     7000,
				SrcPort:     7001,
				PayloadSize: 1400,
				Interval:    25 * time.Microsecond, // ~450 Mb/s per flow
				Count:       4000,
			}, func(r app.FlowResult) { res.Sent += r.Sent })
		})
	}
	built.RunFor(2 * time.Second)
	for _, s := range sinks {
		res.Delivered += s.Count()
	}

	// Per-direction data wire time on trunk links.
	var busies []float64
	var total, maxBusy time.Duration
	for _, l := range built.Network.Links() {
		if !built.IsTrunk(l) {
			continue
		}
		res.TrunkLinks++
		used := false
		for _, p := range []*netsim.Port{l.A(), l.B()} {
			busy := dataBusy[p]
			busies = append(busies, busy.Seconds())
			total += busy
			if busy > maxBusy {
				maxBusy = busy
			}
			if busy > 0 {
				used = true
			}
		}
		if used {
			res.UsedLinks++
		}
	}
	if len(busies) > 0 {
		res.MeanBusy = total / time.Duration(len(busies))
	}
	res.MaxBusy = maxBusy
	res.Jain = metrics.Jain(busies)
	return res
}

// T2Table renders the load-distribution comparison.
func T2Table(results []*T2Result) *metrics.Table {
	t := metrics.NewTable("T2 — load distribution: 8 cross-pod UDP flows on a k=4 fat tree",
		"protocol", "trunk links", "links used", "max busy", "mean busy", "jain", "delivered/sent")
	for _, r := range results {
		t.AddRow(string(r.Protocol), r.TrunkLinks, r.UsedLinks,
			r.MaxBusy.Round(time.Microsecond), r.MeanBusy.Round(time.Microsecond),
			fmt.Sprintf("%.3f", r.Jain),
			fmt.Sprintf("%d/%d", r.Delivered, r.Sent))
	}
	return t
}

// --- T3: §2.2 scalability via the ARP Proxy ---------------------------

// T3Row measures broadcast suppression for one fabric size.
type T3Row struct {
	Hosts int
	Proxy bool
	// WarmBroadcasts is the broadcast deliveries during the steady-state
	// re-ARP phase (after every edge bridge has snooped the server).
	WarmBroadcasts uint64
	// PerARP is WarmBroadcasts divided by the number of re-ARPs.
	PerARP float64
	// ProxyReplies counts locally answered requests.
	ProxyReplies uint64
}

// RunT3Proxy measures ARP broadcast volume with and without the in-switch
// proxy on rings of increasing size, with every host periodically
// re-resolving one server, at o's seed and shard count.
func RunT3Proxy(o topo.Options, sizes []int) []T3Row {
	var rows []T3Row
	for _, n := range sizes {
		for _, proxy := range []bool{false, true} {
			rows = append(rows, runT3Cell(o, n, proxy))
		}
	}
	return rows
}

func runT3Cell(o topo.Options, n int, proxy bool) T3Row {
	opts := defaults(o, topo.ARPPath)
	opts.ARPPath().Proxy = proxy
	built := build(opts, topo.TopologySpec{Family: "ring", N: n})
	defer finishNet(built)
	row := T3Row{Hosts: n, Proxy: proxy}

	server := built.Host("H1")
	// Phase 1 (seeding): every host resolves the server once; the replies
	// seed each edge bridge's proxy cache.
	at := built.Now()
	for i := 2; i <= n; i++ {
		h := built.Host(fmt.Sprintf("H%d", i))
		built.Engine.At(at, func() {
			h.Ping(server.IP(), 0, 2*time.Second, func(host.PingResult) {})
		})
		at += 5 * time.Millisecond
	}
	built.RunFor(at - built.Now() + 2*time.Second)

	// Phase 2 (steady state): flush host caches and re-resolve — the
	// periodic re-ARP traffic EtherProxy [5] suppresses.
	counter := countBroadcastDeliveries(built.Network)
	reARPs := 0
	at = built.Now()
	for i := 2; i <= n; i++ {
		h := built.Host(fmt.Sprintf("H%d", i))
		reARPs++
		built.Engine.At(at, func() {
			h.ARP().Flush()
			h.Ping(server.IP(), 0, 2*time.Second, func(host.PingResult) {})
		})
		at += 5 * time.Millisecond
	}
	built.RunFor(at - built.Now() + 2*time.Second)

	row.WarmBroadcasts = *counter
	if reARPs > 0 {
		row.PerARP = float64(row.WarmBroadcasts) / float64(reARPs)
	}
	for _, br := range built.Bridges {
		row.ProxyReplies += br.(*core.Bridge).Stats().ProxyConverted
	}
	return row
}

// T3Table renders the proxy-scaling comparison.
func T3Table(rows []T3Row) *metrics.Table {
	t := metrics.NewTable("T3 — ARP broadcast suppression by the in-switch proxy (steady-state re-ARPs)",
		"hosts", "proxy", "broadcast deliveries", "per re-ARP", "proxy replies")
	for _, r := range rows {
		t.AddRow(r.Hosts, r.Proxy, r.WarmBroadcasts, fmt.Sprintf("%.1f", r.PerARP), r.ProxyReplies)
	}
	return t
}

// --- T4: §2.1.4 repair ablation ----------------------------------------

// T4Row is one variant's recovery from a single mid-stream failure: a
// Figure 3 run with one cut.
type T4Row struct {
	Variant string
	*Figure3Result
}

// RepairTime is the interruption after the cut (zero if none landed).
func (r T4Row) RepairTime() time.Duration {
	if len(r.Failures) == 0 {
		return 0
	}
	return r.Failures[0].RepairTime
}

// RunT4Repair compares recovery mechanisms after one failure on the demo
// fabric, at o's seed and shard count: ARP-Path repair, ARP-Path with
// repair disabled (blackhole), and STP with default and fast timers.
func RunT4Repair(o topo.Options) []T4Row {
	variants := []struct {
		name  string
		proto topo.Protocol
		mod   func(*topo.Options)
	}{
		{"arp-path (repair on)", topo.ARPPath, nil},
		{"arp-path (repair off)", topo.ARPPath, func(o *topo.Options) { o.ARPPath().DisableRepair = true }},
		{"stp (default timers)", topo.STP, nil},
		{"stp (fast timers)", topo.STP, func(o *topo.Options) { *o.STP() = stp.FastTimers() }},
	}
	cfg := Figure3Config{StreamSize: 16 << 20, Failures: 1, Budget: 3 * time.Minute}
	var rows []T4Row
	for _, v := range variants {
		opts := defaults(o, v.proto)
		if v.mod != nil {
			v.mod(&opts)
			opts.WarmUp = 0 // recomputed by the builder from the modified config
		}
		rows = append(rows, T4Row{v.name, RunFigure3(opts, cfg)})
	}
	return rows
}

// T4Table renders the ablation.
func T4Table(rows []T4Row) *metrics.Table {
	t := metrics.NewTable("T4 — recovery after one mid-stream link failure (16 MiB stream)",
		"variant", "completed", "repair time", "total stall", "transfer time")
	for _, r := range rows {
		completed, tt, stall, _ := r.outcome()
		t.AddRow(r.Variant, completed, r.RepairTime().Round(time.Microsecond), stall.Round(time.Millisecond), tt)
	}
	return t
}

// --- T5: lock-window ablation ------------------------------------------

// T5Row measures discovery health for one lock-timeout setting.
type T5Row struct {
	LockTimeout time.Duration
	// FloodTime is the worst-case flood traversal of the fabric (the
	// quantity the lock window must exceed; DESIGN.md §5).
	FloodTime time.Duration
	Sent      int
	Lost      int
	// Repairs counts PathRequests triggered because entries expired under
	// the returning replies.
	Repairs uint64
	// SrcPortDrops counts unicasts discarded for violating expired or
	// flapped bindings.
	SrcPortDrops uint64
}

// RunT5LockWindow sweeps the ARP-Path lock timeout on a high-delay ring
// (8 bridges, 1 ms links → flood traversal ≈ 8 ms round the long arc).
// Windows shorter than the traversal let the race guard lapse while
// copies are still in flight and let entries expire under the returning
// replies; the row captures the resulting repair storms and losses. It
// runs at o's seed and shard count.
func RunT5LockWindow(o topo.Options, windows []time.Duration) []T5Row {
	const ringSize = 8
	const linkDelay = time.Millisecond
	floodTime := time.Duration(ringSize) * linkDelay // long-arc bound
	var rows []T5Row
	for _, w := range windows {
		opts := defaults(o, topo.ARPPath)
		opts.ARPPath().LockTimeout = topo.Duration(w)
		opts.Link = opts.Link.WithDelay(linkDelay)
		built := build(opts, topo.TopologySpec{Family: "ring", N: ringSize})
		row := T5Row{LockTimeout: w, FloodTime: floodTime}

		// Hosts on opposite sides of the ring ping each other repeatedly,
		// flushing ARP caches so every round re-runs the discovery race.
		a := built.Host("H1")
		b := built.Host(fmt.Sprintf("H%d", ringSize/2+1))
		const rounds = 10
		at := built.Now()
		for i := 0; i < rounds; i++ {
			built.Engine.At(at, func() {
				a.ARP().Flush()
				b.ARP().Flush()
				a.Ping(b.IP(), 0, 500*time.Millisecond, func(r host.PingResult) {
					row.Sent++
					if r.Err != nil {
						row.Lost++
					}
				})
			})
			at += 600 * time.Millisecond
		}
		built.RunFor(at - built.Now() + 2*time.Second)

		for _, br := range built.Bridges {
			s := br.(*core.Bridge).Stats()
			row.Repairs += s.PathRequestsSent
			row.SrcPortDrops += s.SrcPortDrop
		}
		finishNet(built)
		rows = append(rows, row)
	}
	return rows
}

// T5Table renders the lock-window sweep.
func T5Table(rows []T5Row) *metrics.Table {
	t := metrics.NewTable("T5 — lock-window ablation on an 8-bridge / 1 ms-link ring (flood traversal ≈ 8 ms)",
		"lock timeout", "sent", "lost", "path requests", "src-port drops")
	for _, r := range rows {
		t.AddRow(r.LockTimeout, r.Sent, r.Lost, r.Repairs, r.SrcPortDrops)
	}
	return t
}

// --- T6: forwarding-state scalability -----------------------------------

// T6Row compares per-bridge forwarding-table sizes for one fabric size.
type T6Row struct {
	Hosts int
	// ARPPathMax/Mean are live locking-table entries per bridge after the
	// lock windows expire — proportional to the paths crossing a bridge.
	ARPPathMax  int
	ARPPathMean float64
	// STPMax/Mean are live FIB entries per bridge — learning switches
	// remember every address whose flood they saw.
	STPMax  int
	STPMean float64
}

// RunT6TableSize runs star traffic (every host talks to host 1) on rings
// of growing size and snapshots forwarding state per bridge, at o's seed
// and shard count.
func RunT6TableSize(o topo.Options, sizes []int) []T6Row {
	var rows []T6Row
	for _, n := range sizes {
		row := T6Row{Hosts: n}
		row.ARPPathMax, row.ARPPathMean = t6Measure(defaults(o, topo.ARPPath), n)
		row.STPMax, row.STPMean = t6Measure(defaults(o, topo.STP), n)
		rows = append(rows, row)
	}
	return rows
}

func t6Measure(o topo.Options, n int) (maxLen int, meanLen float64) {
	built := build(o, topo.TopologySpec{Family: "ring", N: n})
	defer finishNet(built)
	server := built.Host("H1")
	at := built.Now()
	for i := 2; i <= n; i++ {
		h := built.Host(fmt.Sprintf("H%d", i))
		built.Engine.At(at, func() {
			h.Ping(server.IP(), 0, 2*time.Second, func(host.PingResult) {})
		})
		at += 2 * time.Millisecond
	}
	// Let the exchanges finish and the ARP-Path lock windows lapse, so
	// only confirmed state remains.
	built.RunFor(at - built.Now() + time.Second)

	total := 0
	for _, br := range built.Bridges {
		t := br.PathTables()[0]
		t.FlushExpired(built.Now())
		live := t.Len()
		total += live
		if live > maxLen {
			maxLen = live
		}
	}
	return maxLen, float64(total) / float64(len(built.Bridges))
}

// T6Table renders the state-size comparison.
func T6Table(rows []T6Row) *metrics.Table {
	t := metrics.NewTable("T6 — forwarding state per bridge, star traffic on a ring (after lock expiry)",
		"hosts", "arp-path max", "arp-path mean", "stp max", "stp mean")
	for _, r := range rows {
		t.AddRow(r.Hosts, r.ARPPathMax, fmt.Sprintf("%.1f", r.ARPPathMean),
			r.STPMax, fmt.Sprintf("%.1f", r.STPMean))
	}
	return t
}
